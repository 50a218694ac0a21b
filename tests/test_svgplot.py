import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from slamaudit.fairness import AbrocaResult, abroca
from slamaudit.metrics import RocCurve, auc_trapezoid
from slamaudit.svgplot import _escape, _px, _py, render_roc_plot

from conftest import REPO_ROOT
from test_fairness import DIAGONAL, PERFECT, random_curve


def render(a, b, labels=("ios", "web")):
    """The plot of curves ``a`` and ``b`` as an audit pair of groups named
    ``labels``."""
    return render_roc_plot(AbrocaResult(
        *labels, abroca(a, b), auc_trapezoid(a), auc_trapezoid(b),
        a.positives + a.negatives, b.positives + b.negatives, a, b,
    ))


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
        assert doc.count("<polygon") == 1  # the shading, whatever the crossings
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

    def test_shading_area_is_the_auc_difference(self):
        """The shading runs along A and back along B, so its signed
        (shoelace) area in ROC units is AUC(A) - AUC(B): positive where A
        lies above B, negative where B does."""
        rng = random.Random(5003)
        for _ in range(200):
            a, b = random_curve(rng), random_curve(rng)
            vertices = a.points + b.points[::-1]
            area = 0.5 * sum(
                x1 * y0 - x0 * y1
                for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1])
            )
            assert abs(area - (auc_trapezoid(a) - auc_trapezoid(b))) <= 1e-12

    def test_coordinates_equal_per_point_formatting(self):
        """The array formatting writes what formatting each coordinate
        with ``_px``/``_py`` writes: the curves' points, and the shading's
        points, A's in order and then B's reversed."""
        rng = random.Random(5004)
        for _ in range(20):
            a, b = random_curve(rng), random_curve(rng)
            lines = render(a, b).splitlines()
            shading = " ".join(f"{_px(x)},{_py(y)}" for x, y in a.points + b.points[::-1])
            assert [l.split('"')[1] for l in lines if l.startswith("<polygon")] == [shading]
            curves = [" ".join(f"{_px(x)},{_py(y)}" for x, y in c.points) for c in (a, b)]
            assert [l.split('"')[1] for l in lines if l.startswith("<polyline")][1:] == curves
