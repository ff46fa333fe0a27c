"""The JSON writer gives the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdilation._jsontext import json_text
from exactdilation.cli import main
from exactdilation.dilation import ando
from exactdilation.fields import RATIONAL
from exactdilation.pairs import PairRecipe, gen_pair
from exactdilation.problems import mat_to_grid
from exactdilation.verify import CheckParams, check_ando, check_sznagy


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from(["0", "-3/7", "12345678901234567890", 'a"b', "back\\slash",
                              "tab\there", "new\nline", "é", " ", "\x7f", "\U0001f600"]))
_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)
                   | st.lists(st.text(max_size=4), max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_writer_matches_json_dumps(obj):
    assert json_text(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", {"": []}, [[]], [{}], {"a": {}}, [["", ""]], ["x", 1], [1, "x"],
    ["plain", 'quo"te'], ["é"], [True, 1, 1.0, False, 0, None], {"b": True, "a": 1},
    [0.0, -0.0, 0, False], [-0.0, 0.0], [float("nan"), float("inf")],
    ["\ud800"], [["a", "\udfff"], ["b"]], [["1", "2"], ["3", '"']], [["x"], {"k": "v"}],
])
def test_writer_edge_cases(obj):
    assert json_text(obj) == _reference(obj)


def test_writer_matches_json_dumps_on_reports_grids_and_problems(tmp_path):
    t, s = gen_pair(PairRecipe("polynomial", 3, RATIONAL, seed=4))
    params = CheckParams(max_power=2, max_trunc=2, trials=2)
    for report in (check_ando(ando(t, s), params), check_sznagy(t, params)):
        assert report.to_json() == _reference(report.to_dict())
    grid = {"trunc": 1, "T": mat_to_grid(t), "S": mat_to_grid(s), "empty": []}
    assert json_text(grid) == _reference(grid)
    out = tmp_path / "p.json"
    assert main(["gen", "--kind", "idempotent", "--dim", "3", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == _reference(json.loads(text))
