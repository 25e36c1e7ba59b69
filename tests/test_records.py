"""The package's records keep the behaviour of the frozen dataclasses they replaced.

Each expected repr below is the string a frozen dataclass printed for the same
field values, and the hash is that of the field tuple, as a dataclass's was.
"""

from fractions import Fraction

import pytest

from poset_tower.complexes import RationalPoint, SimplicialComplex
from poset_tower.homology import BettiProfile, ChainComplexZ
from poset_tower.tower import DecodedRegion, ThreadPrefix, Tower
from poset_tower.verify import Check, VerificationReport

EDGE = SimplicialComplex.from_maximal([["a", "b"]])
TOWER = Tower.build(EDGE, 2)

# (record class, its fields, constructor arguments, the dataclass's repr)
RECORDS = [
    (ThreadPrefix, ("tower", "entries"), (TOWER, ("b{a,b}", "{a,b{a,b}}")),
     "ThreadPrefix(b{a,b}, {a,b{a,b}})"),
    (DecodedRegion, ("chain", "representative", "err_sq_bound"),
     ((frozenset({"a"}),), RationalPoint.vertex(EDGE, "a"), Fraction(1, 2)),
     "DecodedRegion(chain=(frozenset({'a'}),), representative=RationalPoint(a:1),"
     " err_sq_bound=Fraction(1, 2))"),
    (ChainComplexZ, ("dims", "boundaries"), ((2, 1), (((-1,), (1,)),)),
     "ChainComplexZ(dims=(2, 1), boundaries=(((-1,), (1,)),))"),
    (BettiProfile, ("betti", "torsion"), ((1, 0), ((), ())),
     "BettiProfile(betti=(1, 0), torsion=((), ()))"),
    (Check, ("name", "passed", "detail"), ("level-1", True),
     "Check(name='level-1', passed=True, detail='')"),
    (VerificationReport, ("suite", "depth", "seed", "checks"),
     ("homology", 1, 0, (Check("stage-0-profile", True, "betti=[1, 0]"),)),
     "VerificationReport(suite='homology', depth=1, seed=0,"
     " checks=(Check(name='stage-0-profile', passed=True, detail='betti=[1, 0]'),))"),
]


def hash_or_error(x):
    """``hash(x)``, or ``TypeError`` when a field is unhashable (``RationalPoint`` is)."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_equality_hash_immutability_and_repr(cls, fields, args, text):
    record, same = cls(*args), cls(*args)
    values = tuple(getattr(record, name) for name in fields)
    assert cls.__match_args__ == fields
    assert values[:len(args)] == args
    assert record == same and not record != same
    assert record != values and values != record
    assert record != cls(*args[:-1], object())
    assert hash_or_error(record) == hash_or_error(same) == hash_or_error(values)
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
