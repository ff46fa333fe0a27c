"""Exhaustive small-scope audit: every commuting pair of small matrices over GF(2)
and GF(3), not a sample of them, passes every check of the two-map suite."""

from itertools import product

import pytest

import exactdilation.dilation as dilation_mod
from exactdilation.dilation import NotCommuting, ando
from exactdilation.fields import gf
from exactdilation.linalg import Mat, identity
from exactdilation.pairs import check_commute
from exactdilation.verify import check_ando

GF2, GF3 = gf(2), gf(3)


def _every_pair(field, d):
    """Every pair of d x d matrices over GF(p): the commuting ones, and the others."""
    mats = [Mat.from_ints(field, d, d, [entries[i * d:(i + 1) * d] for i in range(d)])
            for entries in product(range(field.modulus), repeat=d * d)]
    commuting, others = [], []
    for t, s in product(mats, repeat=2):
        (commuting if check_commute(t, s) else others).append((t, s))
    return commuting, others


def _audit(pairs, completion):
    """Audit every pair at the default windows; fail naming the first failing pair."""
    for t, s in pairs:
        failed = [r.name for r in check_ando(ando(t, s, completion=completion)).checks
                  if not r.passed]
        assert not failed, f"{completion}: T={t.ints} S={s.ints} fails {failed}"


@pytest.mark.parametrize("field, d, count, completions", [
    (GF2, 1, 4, ("forward", "reverse")),
    (GF2, 2, 88, ("forward", "reverse")),
    (GF3, 2, 945, ("forward",)),
], ids=["gf2-d1", "gf2-d2", "gf3-d2"])
def test_every_commuting_pair_passes(field, d, count, completions):
    commuting, others = _every_pair(field, d)
    assert len(commuting) == count
    for completion in completions:
        _audit(commuting, completion)
    if field == GF2:
        for t, s in others:
            with pytest.raises(NotCommuting):
                ando(t, s)


def test_exhaustive_audit_catches_a_wrong_exchange_map(monkeypatch):
    # negative control: with v = v_inv = I the builder's inverse check passes, and
    # v G = H fails on some pair, which the failure names
    ident = identity(GF2, 8)
    monkeypatch.setattr(dilation_mod, "build_v", lambda gens, completion="forward": (ident, ident))
    commuting, _ = _every_pair(GF2, 2)
    with pytest.raises(AssertionError, match=r"^forward: T=\(\(.*\)\) S=\(\(.*\)\) fails "
                                             r"\[.*'v_coherence'.*\]"):
        _audit(commuting, "forward")
