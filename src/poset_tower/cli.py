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
from .tower import ThreadPrefix, Tower
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


def _emit_poset(X: FinitePoset, fmt: str) -> int:
    if fmt == "dot":
        sys.stdout.write(to_dot(X))
    else:
        _emit(X.to_json_obj())
    return 0


def _cmd_poset_core(args) -> int:
    return _emit_poset(core(_load_poset(args.file)), args.format)


def _cmd_poset_order_complex(args) -> int:
    _emit(order_complex(_load_poset(args.file)).to_json_obj())
    return 0


def _cmd_poset_face_poset(args) -> int:
    return _emit_poset(face_poset(_load_complex(args.file)), args.format)


def _cmd_poset_dot(args) -> int:
    return _emit_poset(_load_poset(args.file), "dot")


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


def _load_thread(args) -> ThreadPrefix:
    """The thread file's entries, resolved in a tower just deep enough for them."""
    K = _load_complex(args.complex)
    obj = _read_json(args.thread)
    entries = obj.get("entries", []) if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise InvalidInput(
            f'a thread must be a JSON object {{"entries": [label, ...]}}, not {obj!r}')
    return _guarded_tower(args, K, max(len(entries), 1)).thread(entries)


def _cmd_tower_decode(args) -> int:
    t = _load_thread(args)
    region = t.tower.decode_thread(t)
    _emit({
        "chain": [sorted(c) for c in region.chain],
        "representative": region.representative.to_json_obj(),
        "err_sq_bound": str(region.err_sq_bound),
    })
    return 0


def _cmd_tower_validate(args) -> int:
    t = _load_thread(args)
    ok = t.tower.validate_thread(t)
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
    h = PLMap.from_json_obj(_read_json(args.map), None if args.allow_deep else depth_guard)
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

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(parent, name, func, *positionals, allow_deep=False, help=None, **options):
        """Declare a command: its positionals, each ``--OPTION``'s argparse settings, --allow-deep."""
        # a help of None would still list the command in its parent's --help
        p = parent.add_parser(name, **({"help": help} if help else {}))
        for positional in positionals:
            p.add_argument(positional)
        for option, settings in options.items():
            p.add_argument(f"--{option}", **settings)
        if allow_deep:
            p.add_argument("--allow-deep", action="store_true",
                           help="override the dimension-based depth guard")
        p.set_defaults(func=func)

    path = {"type": str, "required": True}
    integer = {"type": int, "required": True}
    fmt = {"choices": ["json", "dot"], "default": "json"}

    complex_ = group("complex", "validate or subdivide complexes")
    command(complex_, "validate", _cmd_complex_validate, "file")
    command(complex_, "subdivide", _cmd_complex_subdivide, "file", stage=integer, allow_deep=True)

    poset = group("poset", "poset constructions and exports")
    command(poset, "core", _cmd_poset_core, "file", format=fmt)
    command(poset, "order-complex", _cmd_poset_order_complex, "file")
    command(poset, "face-poset", _cmd_poset_face_poset, "file", format=fmt)
    command(poset, "dot", _cmd_poset_dot, "file")

    tower = group("tower", "build towers, encode/decode threads")
    command(tower, "build", _cmd_tower_build, "complex", depth=integer, allow_deep=True)
    command(tower, "encode", _cmd_tower_encode, "complex", point=path, depth=integer,
            allow_deep=True)
    command(tower, "decode", _cmd_tower_decode, "complex", thread=path, allow_deep=True)
    command(tower, "validate", _cmd_tower_validate, "complex", thread=path, allow_deep=True)
    command(tower, "separate", _cmd_tower_separate, "complex", p=path, q=path, depth=integer,
            allow_deep=True)
    command(tower, "verify", _cmd_tower_verify, "complex",
            suite={"default": "all", "help": f"one of {sorted(SUITES)} or 'all'"},
            depth={"type": int, "default": 2}, seed={"type": int, "default": 0})

    command(sub, "homology", _cmd_homology, "file",
            help="Betti numbers and torsion of a complex")
    command(sub, "approx", _cmd_approx, map={"required": True},
            cap={"type": int, "default": 4}, allow_deep=True,
            help="simplicial approximation of a PL map")

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
