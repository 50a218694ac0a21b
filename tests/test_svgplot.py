import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from slamaudit.fairness import abroca, difference_intervals
from slamaudit.metrics import RocCurve
from slamaudit.svgplot import _escape, render_roc_plot

from conftest import REPO_ROOT
from test_fairness import DIAGONAL, PERFECT, random_curve


def render(a, b, labels=("ios", "web")):
    return render_roc_plot(a, b, labels, abroca(a, b))


class TestWellFormedness:
    def test_parses_as_xml(self):
        rng = random.Random(5001)
        for _ in range(10):
            doc = render(random_curve(rng), random_curve(rng))
            root = ET.fromstring(doc)
            assert root.tag.endswith("svg")

    def test_identical_curves_still_valid(self):
        doc = render(DIAGONAL, DIAGONAL)
        ET.fromstring(doc)
        assert "ABROCA = 0.0000" in doc

    def test_labels_are_escaped(self):
        doc = render(PERFECT, DIAGONAL, labels=("a<b&c", 'd"e'))
        ET.fromstring(doc)
        assert "a&lt;b&amp;c" in doc

    @pytest.mark.parametrize(
        "text", ["", "ios", "a<b&c", 'd"e', "&amp;", "<<>>&&", "x > y", "ñ<é>'"]
    )
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)

    def test_cli_import_leaves_network_modules_out(self):
        heavy = ("urllib.request", "http.client", "ssl", "email")
        code = (
            "import sys, slamaudit.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert out.stdout.strip() == "[]"


class TestContent:
    def test_perfect_vs_diagonal_panel(self):
        doc = render(PERFECT, DIAGONAL)
        assert "ABROCA = 0.5000" in doc
        # one shaded quad per difference interval
        assert doc.count("<polygon") == len(difference_intervals(PERFECT, DIAGONAL))
        assert "AUC = 1.0000" in doc
        assert "AUC = 0.5000" in doc

    def test_axes_and_curves_present(self):
        doc = render(PERFECT, DIAGONAL)
        assert "False positive rate" in doc
        assert "True positive rate" in doc
        assert doc.count("<polyline") == 3  # chance diagonal + two curves

    def test_byte_deterministic(self):
        rng1, rng2 = random.Random(5002), random.Random(5002)
        a1, b1 = random_curve(rng1), random_curve(rng1)
        a2, b2 = random_curve(rng2), random_curve(rng2)
        assert render(a1, b1) == render(a2, b2)

    def test_shading_matches_interval_count_on_random_pairs(self):
        rng = random.Random(5003)
        for _ in range(10):
            a, b = random_curve(rng), random_curve(rng)
            doc = render(a, b)
            assert doc.count("<polygon") == len(difference_intervals(a, b))
