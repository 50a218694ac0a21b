import gc
import importlib.util
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from slamaudit.errors import DataError, ParseError, SlamAuditError
from slamaudit.slam_format import (
    Client,
    Dataset,
    ExerciseFormat,
    Session,
    Split,
    Track,
    join_labels,
    morph_features,
    parse_dataset,
    parse_label_key,
    read_dataset,
    read_label_key,
    serialize_dataset,
)

from conftest import REPO_ROOT
from gen_slam import random_dataset
from oracles import oracle_parse_dataset

HEADER = "# user:XEinXf5+ countries:US days:1.5 client:web session:lesson format:reverse_translate time:9"
TOKEN = "aaaa0001 Yo PRON Person=1 nsubj 2 0"


def parse_lines(text, track=Track.EN_ES):
    """(meta, tokens) per exercise of the parsed dataset, in file order."""
    ds = parse_dataset(text.splitlines(), track, Split.TRAIN)
    exercises = [(meta, []) for meta in ds.metas]
    for e, inst in zip(ds.exercise, ds.instances):
        exercises[e][1].append(inst)
    return exercises


class TestParseExerciseStream:
    """A stream of exercise blocks, as ``parse_dataset`` reads it."""

    def test_empty_stream(self):
        assert parse_lines("") == []

    def test_single_exercise(self):
        exercises = parse_lines(f"{HEADER}\n{TOKEN}\n")
        assert len(exercises) == 1
        meta, tokens = exercises[0]
        assert meta.user_id == "XEinXf5+"
        assert meta.countries == ("US",)
        assert meta.days == 1.5
        assert meta.client is Client.WEB
        assert meta.session is Session.LESSON
        assert meta.format is ExerciseFormat.REVERSE_TRANSLATE
        assert meta.time == 9
        assert len(tokens) == 1
        inst = tokens[0]
        assert inst.instance_id == "aaaa0001"
        assert inst.token == "Yo"
        assert inst.part_of_speech == "PRON"
        assert inst.morph_features == ("Person=1",)
        assert inst.dep_label == "nsubj"
        assert inst.dep_head == 2
        assert inst.label == 0
        assert inst.meta is meta

    def test_missing_label_column(self):
        (_, tokens), = parse_lines(f"{HEADER}\naaaa0001 Yo PRON Person=1 nsubj 2\n")
        assert tokens[0].label is None

    def test_prompt_line_kept_verbatim(self):
        text = f"# prompt:Yo soy un niño.\n{HEADER}\n{TOKEN}\n"
        (meta, _), = parse_lines(text)
        assert meta.prompt == "Yo soy un niño."

    def test_metadata_order_independent(self):
        shuffled = "# days:1.5 user:XEinXf5+ format:reverse_translate countries:US time:9 session:lesson client:web"
        (meta, _), = parse_lines(f"{shuffled}\n{TOKEN}\n")
        assert meta.user_id == "XEinXf5+"
        assert meta.days == 1.5

    def test_unknown_keys_preserved(self):
        (meta, _), = parse_lines(f"{HEADER} difficulty:3\n{TOKEN}\n")
        assert meta.extras == (("difficulty", "3"),)

    def test_null_time(self):
        header = HEADER.replace("time:9", "time:null")
        (meta, _), = parse_lines(f"{header}\n{TOKEN}\n")
        assert meta.time is None

    def test_multiple_exercises_blank_separated(self):
        text = f"{HEADER}\n{TOKEN}\n\n{HEADER}\nbbbb0001 tú PRON Person=2 nsubj 2 1\n"
        exercises = parse_lines(text)
        assert len(exercises) == 2
        assert exercises[1][1][0].label == 1

    def test_unknown_client_is_parse_error(self):
        bad = HEADER.replace("client:web", "client:desktop")
        with pytest.raises(ParseError, match="desktop"):
            parse_lines(f"{bad}\n{TOKEN}\n")

    def test_unknown_session_and_format(self):
        with pytest.raises(ParseError, match="quiz"):
            parse_lines(f"{HEADER.replace('session:lesson', 'session:quiz')}\n{TOKEN}\n")
        with pytest.raises(ParseError, match="dictation"):
            parse_lines(
                f"{HEADER.replace('format:reverse_translate', 'format:dictation')}\n{TOKEN}\n"
            )

    def test_malformed_metadata_reports_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_lines("# user XEinXf5+\n")

    def test_block_without_tokens_checked_and_adds_no_rows(self):
        second = HEADER.replace("time:9", "time:4")
        (meta, tokens), = parse_lines(f"{HEADER}\n\n{second}\n{TOKEN}\n")
        assert meta.time == 4
        assert [i.instance_id for i in tokens] == ["aaaa0001"]
        bad = HEADER.replace("days:1.5", "days:-1")
        with pytest.raises(ParseError, match="line 1: negative days"):
            parse_lines(f"{bad}\n\n{HEADER}\n{TOKEN}\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            parse_lines(f"{HEADER}\naaaa0001 Yo PRON\n")

    def test_missing_required_metadata(self):
        with pytest.raises(ParseError, match="client"):
            parse_lines("# user:u countries:US days:1 session:lesson format:listen\nt0 a N _ det 0\n")

    def test_token_line_outside_block(self):
        with pytest.raises(ParseError, match="outside"):
            parse_lines(f"{TOKEN}\n")

    def test_bad_countries(self):
        with pytest.raises(ParseError, match="countries"):
            parse_lines(f"{HEADER.replace('countries:US', 'countries:usa')}\n{TOKEN}\n")

    def test_conservation_of_token_lines(self):
        rng = random.Random(11)
        ds = random_dataset(rng, n_exercises=20)
        text = serialize_dataset(ds)
        token_lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        parsed = parse_dataset(text.splitlines(), ds.track, ds.split)
        assert len(parsed.instances) == len(token_lines)


class TestLabelKey:
    def test_empty(self):
        assert parse_label_key([]) == {}

    def test_single_line(self):
        assert parse_label_key(["aaaa0001 1"]) == {"aaaa0001": 1}

    def test_duplicate_id_is_error(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_label_key(["aaaa0001 1", "aaaa0001 0"])

    def test_label_outside_binary(self):
        with pytest.raises(ParseError, match="label"):
            parse_label_key(["aaaa0001 2"])

    def test_wrong_columns(self):
        with pytest.raises(ParseError, match="columns"):
            parse_label_key(["aaaa0001 1 extra"])


class TestJoinLabels:
    def test_empty_dataset_empty_key(self):
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(), split=Split.DEV)
        assert join_labels(ds, {}) == ds

    def test_join_single(self):
        ds = parse_dataset(
            f"{HEADER}\naaaa0001 Yo PRON Person=1 nsubj 2\n".splitlines(),
            Track.EN_ES,
            Split.DEV,
        )
        joined = join_labels(ds, {"aaaa0001": 1})
        assert joined.instances[0].label == 1
        assert [i.instance_id for i in joined.instances] == ["aaaa0001"]

    def test_missing_id_names_it(self):
        text = f"{HEADER}\naaaa0001 Yo PRON Person=1 nsubj 2\naaaa0002 soy VERB Person=1 ROOT 0\n"
        ds = parse_dataset(text.splitlines(), Track.EN_ES, Split.DEV)
        with pytest.raises(DataError, match="aaaa0002"):
            join_labels(ds, {"aaaa0001": 0})

    def test_extra_ids_warn_not_error(self, caplog):
        ds = parse_dataset(
            f"{HEADER}\naaaa0001 Yo PRON Person=1 nsubj 2\n".splitlines(),
            Track.EN_ES,
            Split.DEV,
        )
        with caplog.at_level("WARNING"):
            joined = join_labels(ds, {"aaaa0001": 0, "zzzz0001": 1})
        assert joined.instances[0].label == 0
        assert any("1 entries" in r.getMessage() for r in caplog.records)


    def test_first_missing_id_in_file_order_is_named(self):
        text = (
            f"{HEADER}\naaaa0001 Yo PRON Person=1 nsubj 2\n"
            "aaaa0002 soy VERB Person=1 ROOT 0\naaaa0003 un DET _ det 4\n"
        )
        ds = parse_dataset(text.splitlines(), Track.EN_ES, Split.DEV)
        with pytest.raises(DataError) as info:
            join_labels(ds, {"aaaa0001": 0})
        assert str(info.value) == "no label for instance id 'aaaa0002'"

    def test_extra_entry_count_and_input_left_unlabeled(self, mini_dir, caplog):
        ds = read_dataset(mini_dir / "en_es.dev.slam", Track.EN_ES, Split.DEV)
        key = read_label_key(mini_dir / "en_es.dev.key")
        key.update({"zzzz0001": 1, "zzzz0002": 0, "zzzz0003": 1})
        with caplog.at_level("WARNING"):
            joined = join_labels(ds, key)
        assert [r.getMessage() for r in caplog.records] == [
            "label key has 3 entries not present in the dataset"
        ]
        assert [i.label for i in joined.instances] == [key[i] for i in ds.ids]
        assert ds.labels == [None] * len(ds)
        assert all(i.label is None for i in ds.instances)


def parse_outcome(parse, lines):
    """What parsing gives: the dataset (its metadata, tokens and exercise
    boundaries), or the error's type, message and line number."""
    try:
        return parse(lines, Track.EN_ES, Split.TRAIN)
    except SlamAuditError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_parses_like_oracle(lines):
    """The column parser agrees with the per-token parser."""
    assert parse_outcome(parse_dataset, lines) == parse_outcome(oracle_parse_dataset, lines)


class TestColumnParserOracle:
    @pytest.mark.parametrize("split", ["train", "dev"])
    @pytest.mark.parametrize("track", list(Track))
    def test_fixture_splits(self, mini_dir, track, split):
        lines = (mini_dir / f"{track.value}.{split}.slam").read_text().splitlines()
        assert_parses_like_oracle(lines)
        ds = parse_dataset(lines, track, Split(split))
        assert ds.instances == oracle_parse_dataset(lines, track, Split(split)).instances

    def test_random_round_trips(self):
        rng = random.Random(1307)
        for k in range(30):
            ds = random_dataset(rng, n_exercises=rng.randint(0, 12), labeled=k % 3 > 0)
            lines = serialize_dataset(ds).splitlines()
            assert_parses_like_oracle(lines)
            assert parse_dataset(lines, ds.track, ds.split).instances == ds.instances

    @pytest.mark.parametrize(
        "text",
        [
            f"{HEADER}\n\n{HEADER}\n{TOKEN}\n",  # a block without tokens
            f"{HEADER}\naaaa0001 Yo PRON _ nsubj ² 0\n",  # isdigit(), but not int()
            f"{HEADER}\naaaa0001 Yo PRON _ nsubj 1_0 0\n",  # int() reads 10
            f"{HEADER}\naaaa0001 Yo PRON _ nsubj -0 0\naaaa0002 a B _ c +3\n",
            f"{HEADER}\naaaa0001 Yo PRON _ nsubj -1 0\n",
            f"{HEADER}\naaaa0001 Yo PRON _ nsubj 2 0\naaaa0002 Yo PRON _ nsubj x\n",
            f"{HEADER}\n{TOKEN}\n{TOKEN}\n",  # duplicate id
            f"{HEADER}\n{TOKEN}\n{HEADER}\n",
            f"# prompt:a\n\n{TOKEN}\n",
            f"{HEADER}\r\n{TOKEN}\r\n \t\r\n{HEADER}\r\nbbbb0001 tú PRON _ nsubj 2 2\r\n",
        ],
    )
    def test_edge_inputs(self, text):
        assert_parses_like_oracle(text.splitlines(keepends=True))
        assert_parses_like_oracle(text.splitlines())


def key_fields(inst):
    return inst.token, inst.part_of_speech, inst.morph_features, inst.dep_label


class TestTokenKeyTable:
    """A split's rows join its exercise table with a table of its distinct
    (token, POS, morph field, dep) keys."""

    @staticmethod
    def assert_tables_match(ds, instances):
        keys, key = ds.keys, list(ds.key)
        assert len(set(keys)) == len(keys)
        assert list(dict.fromkeys(key)) == list(range(len(keys)))  # first-occurrence order
        fields = [(t, p, morph_features(m), d) for t, p, m, d in (keys[k] for k in key)]
        assert fields == [key_fields(inst) for inst in instances]

    @pytest.mark.parametrize("split", ["train", "dev"])
    @pytest.mark.parametrize("track", list(Track))
    def test_fixture_keys_equal_oracle_parser_fields(self, mini_dir, track, split):
        lines = (mini_dir / f"{track.value}.{split}.slam").read_text().splitlines()
        ds = parse_dataset(lines, track, Split(split))
        oracle = oracle_parse_dataset(lines, track, Split(split)).instances
        self.assert_tables_match(ds, oracle)
        assert len(ds.keys) < 0.85 * len(ds)  # the fixture repeats its keys
        assert Dataset.from_instances(track, oracle, Split(split)) == ds

    def test_random_repeated_keys(self):
        rng = random.Random(1601)
        repeats = 0
        for _ in range(40):
            ds = random_dataset(rng, n_exercises=rng.randint(0, 8))
            instances = list(ds.instances)
            for i in range(1, len(instances)):
                if rng.random() < 0.4:  # take an earlier row's key, keep the rest
                    t, p, m, d = key_fields(instances[rng.randrange(i)])
                    instances[i] = replace(instances[i], token=t, part_of_speech=p,
                                           morph_features=m, dep_label=d)
                    repeats += 1
            keyed = Dataset.from_instances(ds.track, instances, ds.split)
            self.assert_tables_match(keyed, instances)
            lines = serialize_dataset(keyed).splitlines()
            assert parse_dataset(lines, ds.track, ds.split) == keyed
        assert repeats > 50


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_parsed_benchmark_dev_split_stays_within_300_bytes_per_token(tmp_path):
    """The benchmark's 25x en_es dev split, parsed: live memory per token
    (ids, labels, heads, the two int code columns and both tables)."""
    corpus = load_bench_module("corpus")
    spec = corpus.CorpusSpec(tracks=("en_es",), dev=25)
    corpus.generate(corpus.load_generator(REPO_ROOT), spec, corpus.FIXTURE_SEED, tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        ds = read_dataset(tmp_path / "en_es.dev.slam", Track.EN_ES, Split.DEV)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ds) == 13077
    assert live / len(ds) <= 300


class TestSerialize:
    def test_empty_dataset(self):
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(), split=Split.TRAIN)
        assert serialize_dataset(ds) == ""

    def test_one_exercise_round_trip(self):
        ds = parse_dataset(f"{HEADER}\n{TOKEN}\n".splitlines(), Track.EN_ES, Split.TRAIN)
        again = parse_dataset(
            serialize_dataset(ds).splitlines(), Track.EN_ES, Split.TRAIN
        )
        assert again == ds

    def test_round_trip_100_random_exercises(self):
        rng = random.Random(7)
        ds = random_dataset(rng, n_exercises=100)
        again = parse_dataset(serialize_dataset(ds).splitlines(), ds.track, ds.split)
        assert again == ds

    def test_round_trip_unlabeled(self):
        rng = random.Random(8)
        ds = random_dataset(rng, split=Split.DEV, labeled=False, n_exercises=10)
        again = parse_dataset(serialize_dataset(ds).splitlines(), ds.track, ds.split)
        assert again == ds


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        text = f"{HEADER}\n{TOKEN}\n{TOKEN}\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_dataset(text.splitlines(), Track.EN_ES, Split.TRAIN)

    def test_from_instances_names_track_mismatch_after_earlier_duplicate(self):
        a, b = parse_dataset(
            f"{HEADER}\n{TOKEN}\nbbbb0001 tú PRON _ nsubj 2 1\n".splitlines(),
            Track.EN_ES,
            Split.TRAIN,
        ).instances
        fr = replace(b, track=Track.FR_EN)
        with pytest.raises(DataError, match="'bbbb0001' has track fr_en, dataset is en_es"):
            Dataset.from_instances(track=Track.EN_ES, instances=(a, fr, a), split=Split.TRAIN)
        with pytest.raises(DataError, match="duplicate instance id 'aaaa0001'"):
            Dataset.from_instances(track=Track.EN_ES, instances=(a, a, fr), split=Split.TRAIN)

    def test_equal_instances_with_other_exercise_boundaries_differ(self):
        one = parse_dataset(
            f"{HEADER}\n{TOKEN}\nbbbb0001 tú PRON _ nsubj 2 1\n".splitlines(),
            Track.EN_ES,
            Split.TRAIN,
        )
        two = parse_dataset(
            f"{HEADER}\n{TOKEN}\n\n{HEADER}\nbbbb0001 tú PRON _ nsubj 2 1\n".splitlines(),
            Track.EN_ES,
            Split.TRAIN,
        )
        assert one.instances == two.instances
        assert one != two
        assert serialize_dataset(one) != serialize_dataset(two)


class TestSampleFiles:
    def test_parse_bundled_train_sample(self, sample_slam_dir):
        path = sample_slam_dir / "en_es.sample.train.slam"
        ds = parse_dataset(
            path.read_text(encoding="utf-8").splitlines(), Track.EN_ES, Split.TRAIN
        )
        assert len(ds.instances) > 0
        assert all(i.label in (0, 1) for i in ds.instances)
        clients = {i.meta.client for i in ds.instances}
        assert clients <= {Client.IOS, Client.ANDROID, Client.WEB}
        again = parse_dataset(serialize_dataset(ds).splitlines(), ds.track, ds.split)
        assert again == ds

    def test_parse_bundled_dev_sample_and_key(self, sample_slam_dir):
        path = sample_slam_dir / "en_es.sample.dev.slam"
        ds = parse_dataset(
            path.read_text(encoding="utf-8").splitlines(), Track.EN_ES, Split.DEV
        )
        assert all(i.label is None for i in ds.instances)
        key = parse_label_key(
            (sample_slam_dir / "en_es.sample.dev.key").read_text().splitlines()
        )
        joined = join_labels(ds, key)
        assert all(i.label in (0, 1) for i in joined.instances)
