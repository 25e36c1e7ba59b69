"""Wrong arguments raise a typed error, one row per call.

Each row calls one public function or method on valid receivers with one
wrong argument and names the ``PosetTowerError`` subclass and the exact
message it must raise.  ``None`` for a point or a map gets the
``WrongComplex`` that one over another complex gets, and so does ``None`` for
a thread where a thread of another tower is refused (``limit_map``).  Where
such a thread is read afresh (``decode_thread``, ``validate_thread``),
``None`` gets ``InvalidInput``, and so do entries that are not a list or
tuple.  A newly typed input is a new row.
"""

import re

import pytest

from poset_tower import (
    PLMap,
    RationalPoint,
    SimplicialComplex,
    SimplicialMap,
    SystemMorphism,
    ThreadPrefix,
    carrier_homotopy_check,
    decode_thread,
    dist_sq,
    lift_point,
    limit_map,
    sd_coordinates,
    subdivide,
    validate_thread,
)
from poset_tower.errors import (
    IncoherentThread,
    InvalidComplex,
    InvalidInput,
    NoCommonSimplex,
    PosetTowerError,
    WrongComplex,
)
from poset_tower.verify import sample_points

from conftest import cached_tower


def edge_tower():
    return cached_tower("edge", 1)


def vertex_a(E):
    return RationalPoint.vertex(E, "a")


def identity_pl(E):
    return PLMap(subdivide(E, 0), E, {v: RationalPoint.vertex(E, v) for v in E.vertices})


def identity_morphism(E):
    return SystemMorphism.build(SimplicialMap.identity(E), edge_tower(), edge_tower())


def edge_thread(entries):
    return ThreadPrefix(edge_tower(), entries)


NOT_A_THREAD = "a thread must be a ThreadPrefix, not NoneType"
NOT_A_LIST = "thread entries must be a list or tuple, not {}"
NO_ENTRY = "a thread needs at least one entry"

WRONG_ARGUMENTS = {
    "apply-point-none": (lambda E: SimplicialMap.identity(E).apply_point(None),
                         WrongComplex, "point must be over the map's source"),
    "compose-none": (lambda E: SimplicialMap.identity(E).compose(None),
                     WrongComplex, "composition mismatch"),
    "evaluate-none": (lambda E: identity_pl(E).evaluate(None),
                      WrongComplex, "point must be over the map's defining stage"),
    "carrier-homotopy-check-none": (
        lambda E: carrier_homotopy_check(identity_pl(E), None, [], subdivide(E, 0)),
        WrongComplex, "stage does not match the simplicial map's source"),
    "embed-point-none": (lambda E: subdivide(E, 1).embed_point(None),
                         WrongComplex, "point is not expressed over this stage"),
    "sd-coordinates-none": (lambda E: sd_coordinates(subdivide(E, 1), None),
                            WrongComplex, "point must be expressed over the previous stage"),
    "lift-point-none": (lambda E: lift_point(subdivide(E, 1), None),
                        WrongComplex, "point is not over the chain's base complex"),
    "encode-thread-none": (lambda E: edge_tower().encode_thread(None, 1),
                           WrongComplex, "point is not over the tower's base complex"),
    "project-point-none": (lambda E: edge_tower().project_point(None, 1),
                           WrongComplex, "point is not over the tower's base complex"),
    "separation-stage-none-first": (lambda E: edge_tower().separation_stage(None, vertex_a(E)),
                                    WrongComplex, "point is not over the tower's base complex"),
    "separation-stage-none-second": (lambda E: edge_tower().separation_stage(vertex_a(E), None),
                                     WrongComplex, "point is not over the tower's base complex"),
    "decode-thread-method-none": (lambda E: edge_tower().decode_thread(None),
                                  InvalidInput, NOT_A_THREAD),
    "validate-thread-method-none": (lambda E: edge_tower().validate_thread(None),
                                    InvalidInput, NOT_A_THREAD),
    "decode-thread-none": (lambda E: decode_thread(None), InvalidInput, NOT_A_THREAD),
    "validate-thread-none": (lambda E: validate_thread(None), InvalidInput, NOT_A_THREAD),
    "limit-map-none": (lambda E: limit_map(identity_morphism(E), None),
                       WrongComplex, "thread does not belong to the morphism's source tower"),
    "validate-thread-none-entries": (lambda E: validate_thread(edge_thread(None)),
                                     InvalidInput, NOT_A_LIST.format("NoneType")),
    "validate-thread-str-entries": (lambda E: validate_thread(edge_thread("a")),
                                    InvalidInput, NOT_A_LIST.format("str")),
    "validate-thread-no-entries": (lambda E: validate_thread(edge_thread(())),
                                   IncoherentThread, NO_ENTRY),
    "decode-thread-none-entries": (lambda E: decode_thread(edge_thread(None)),
                                   InvalidInput, NOT_A_LIST.format("NoneType")),
    "decode-thread-no-entries": (lambda E: decode_thread(edge_thread(())),
                                 IncoherentThread, NO_ENTRY),
    "limit-map-none-entries": (lambda E: limit_map(identity_morphism(E), edge_thread(None)),
                               InvalidInput, NOT_A_LIST.format("NoneType")),
    "k-simplices-str": (lambda E: E.k_simplices("1"),
                        InvalidInput, "dimension must be an integer, not '1'"),
    "k-simplices-none": (lambda E: E.k_simplices(None),
                         InvalidInput, "dimension must be an integer, not None"),
    "k-simplices-float": (lambda E: E.k_simplices(1.0),
                          InvalidInput, "dimension must be an integer, not 1.0"),
    "dist-sq-none-first": (lambda E: dist_sq(None, vertex_a(E)),
                           NoCommonSimplex, "points live on different complexes"),
    "dist-sq-none-second": (lambda E: dist_sq(vertex_a(E), None),
                            NoCommonSimplex, "points live on different complexes"),
    "sample-points-empty-complex": (lambda E: sample_points(SimplicialComplex([], []), 1, 0),
                                    InvalidComplex, "cannot sample points of the empty complex"),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENTS)
def test_a_wrong_argument_raises_a_typed_error(E, name):
    call, error, message = WRONG_ARGUMENTS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call(E)
    assert isinstance(exc.value, PosetTowerError)
