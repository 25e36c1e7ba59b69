"""Command-line interface: JSON in, JSON (or DOT) out, diagnostics on stderr.

Subcommands mirror the library: ``complex validate|subdivide``,
``poset core|order-complex|face-poset|dot``, ``tower build|encode|decode|
validate|separate|verify``, ``homology``, ``approx``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .approx import (
    PLMap,
    _approximate_stage,
    carrier_homotopy_check,
    homotopy_sample_points,
    validate_simplicial,
)
from .complexes import RationalPoint, SimplicialComplex
from .errors import InvalidInput, PosetTowerError
from .homology import betti
from .posets import FinitePoset, core, face_poset, order_complex, to_dot
from .subdivision import subdivide
from .tower import Tower
from .verify import SUITES, depth_guard, verify_all, verify_suite


def _read_json(path: str):
    name = "standard input" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{name} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {name}: {getattr(exc, 'strerror', None) or exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_complex(path: str) -> SimplicialComplex:
    return SimplicialComplex.from_json_obj(_read_json(path))


def _load_point(K: SimplicialComplex, path: str) -> RationalPoint:
    return RationalPoint.from_json_obj(K, _read_json(path))


def _cmd_complex_validate(args) -> int:
    K = _load_complex(args.file)
    _emit(K.to_json_obj())
    return 0


def _cmd_complex_subdivide(args) -> int:
    if args.stage < 0:
        raise InvalidInput(f"--stage must be a non-negative integer, not {args.stage}")
    K = _load_complex(args.file)
    if not args.allow_deep:
        depth_guard(K, args.stage)
    _emit(subdivide(K, args.stage).to_json_obj())
    return 0


def _load_poset(path: str) -> FinitePoset:
    return FinitePoset.from_json_obj(_read_json(path))


def _cmd_poset_core(args) -> int:
    X = core(_load_poset(args.file))
    if args.format == "dot":
        sys.stdout.write(to_dot(X))
    else:
        _emit(X.to_json_obj())
    return 0


def _cmd_poset_order_complex(args) -> int:
    _emit(order_complex(_load_poset(args.file)).to_json_obj())
    return 0


def _cmd_poset_face_poset(args) -> int:
    X = face_poset(_load_complex(args.file))
    if args.format == "dot":
        sys.stdout.write(to_dot(X))
    else:
        _emit(X.to_json_obj())
    return 0


def _cmd_poset_dot(args) -> int:
    sys.stdout.write(to_dot(_load_poset(args.file)))
    return 0


def _guarded_tower(args, K: SimplicialComplex, depth: int) -> Tower:
    if not args.allow_deep:
        depth_guard(K, depth)
    return Tower.build(K, depth)


def _build_tower(args) -> Tower:
    return _guarded_tower(args, _load_complex(args.complex), args.depth)


def _cmd_tower_build(args) -> int:
    tower = _build_tower(args)
    _emit({
        "base": tower.base.to_json_obj(),
        "depth": tower.depth,
        "levels": [
            {
                "n": level.n,
                "elements": list(level.elements),
                "leq": [[a, b] for a, b in level.poset.hasse_pairs()],
                "carriers": {x: list(level.carrier[x].verts)
                             for x in level.elements},
            }
            for level in tower.levels
        ],
    })
    return 0


def _cmd_tower_encode(args) -> int:
    tower = _build_tower(args)
    p = _load_point(tower.base, args.point)
    _emit(tower.encode_thread(p, args.depth).to_json_obj())
    return 0


def _load_thread_entries(path: str) -> list:
    obj = _read_json(path)
    entries = obj.get("entries", []) if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise InvalidInput(
            f'a thread must be a JSON object {{"entries": [label, ...]}}, not {obj!r}')
    return entries


def _cmd_tower_decode(args) -> int:
    K = _load_complex(args.complex)
    raw = _load_thread_entries(args.thread)
    tower = _guarded_tower(args, K, max(len(raw), 1))
    region = tower.decode_thread(tower.thread(raw))
    _emit({
        "chain": [sorted(c) for c in region.chain],
        "representative": region.representative.to_json_obj(),
        "err_sq_bound": str(region.err_sq_bound),
    })
    return 0


def _cmd_tower_validate(args) -> int:
    K = _load_complex(args.complex)
    raw = _load_thread_entries(args.thread)
    tower = _guarded_tower(args, K, max(len(raw), 1))
    ok = tower.validate_thread(tower.thread(raw))
    _emit({"coherent": ok})
    return 0 if ok else 1


def _cmd_tower_separate(args) -> int:
    tower = _build_tower(args)
    p = _load_point(tower.base, args.p)
    q = _load_point(tower.base, args.q)
    _emit({"stage": tower.separation_stage(p, q)})
    return 0


def _cmd_tower_verify(args) -> int:
    K = _load_complex(args.complex)
    if args.suite == "all":
        reports = verify_all(K, args.depth, args.seed)
    else:
        reports = [verify_suite(args.suite, K, args.depth, args.seed)]
    _emit([r.to_json_obj() for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _cmd_homology(args) -> int:
    profile = betti(_load_complex(args.file))
    _emit({
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
    })
    return 0


def _cmd_approx(args) -> int:
    h = PLMap.from_json_obj(_read_json(args.map))
    stage, f = _approximate_stage(h, args.cap)
    samples = homotopy_sample_points(stage.complex)
    _emit({
        "n": stage.stage,
        "vertex_map": f.to_json_obj()["vertex_map"],
        "verification": {
            "simplicial": validate_simplicial(f),
            "carrier_homotopy": carrier_homotopy_check(h, f, samples, stage),
            "samples": len(samples),
        },
    })
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first call and reused; ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="poset-tower",
        description="Realize a simplicial complex through a tower of finite posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_allow_deep(p):
        p.add_argument("--allow-deep", action="store_true",
                       help="override the dimension-based depth guard")

    p_complex = sub.add_parser("complex", help="validate or subdivide complexes")
    sub_complex = p_complex.add_subparsers(dest="subcommand", required=True)
    p = sub_complex.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_complex_validate)
    p = sub_complex.add_parser("subdivide")
    p.add_argument("file")
    p.add_argument("--stage", type=int, required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_complex_subdivide)

    p_poset = sub.add_parser("poset", help="poset constructions and exports")
    sub_poset = p_poset.add_subparsers(dest="subcommand", required=True)
    p = sub_poset.add_parser("core")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_poset_core)
    p = sub_poset.add_parser("order-complex")
    p.add_argument("file")
    p.set_defaults(func=_cmd_poset_order_complex)
    p = sub_poset.add_parser("face-poset")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_poset_face_poset)
    p = sub_poset.add_parser("dot")
    p.add_argument("file")
    p.set_defaults(func=_cmd_poset_dot)

    p_tower = sub.add_parser("tower", help="build towers, encode/decode threads")
    sub_tower = p_tower.add_subparsers(dest="subcommand", required=True)
    p = sub_tower.add_parser("build")
    p.add_argument("complex")
    p.add_argument("--depth", type=int, required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_tower_build)
    p = sub_tower.add_parser("encode")
    p.add_argument("complex")
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_tower_encode)
    p = sub_tower.add_parser("decode")
    p.add_argument("complex")
    p.add_argument("--thread", required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_tower_decode)
    p = sub_tower.add_parser("validate")
    p.add_argument("complex")
    p.add_argument("--thread", required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_tower_validate)
    p = sub_tower.add_parser("separate")
    p.add_argument("complex")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--depth", type=int, required=True)
    add_allow_deep(p)
    p.set_defaults(func=_cmd_tower_separate)
    p = sub_tower.add_parser("verify")
    p.add_argument("complex")
    p.add_argument("--suite", default="all",
                   help=f"one of {sorted(SUITES)} or 'all'")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tower_verify)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a complex")
    p.add_argument("file")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("approx", help="simplicial approximation of a PL map")
    p.add_argument("--map", required=True)
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(func=_cmd_approx)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PosetTowerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
