"""Command-line front end.

Exit codes: 0 success, 1 a check answered false (axioms, witness
--verify), 2 parse/usage error, 3 invalid parameters, 4 size refusal,
5 certification answered false (code check only), 70 an internal error
(any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys

from .bounds import SWEEP_HEADER, compute_bounds, sweep, threshold_report
from .codes import (
    is_mds_code,
    is_mr_lrc,
    read_matrix,
    search_mr_code,
    shorten_then_puncture,
    write_matrix,
)
from .errors import ParameterError, SizeRefusal
from .gf import parse_field
from .matroid import check_axioms, flats
from .minors import (
    MinorWitness,
    oracle_max_uniform,
    oracle_max_uniform_all,
    verify_witness,
    witness_eq1,
    witness_eq2,
    witness_eq3,
    witness_eq4,
)
from .mr import MrMatroid, parse_params
from .subsets import format_indices, parse_indices

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMS = 3
EXIT_SIZE = 4
EXIT_CERT = 5
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE


def _load(params_text: str) -> MrMatroid:
    return MrMatroid(parse_params(params_text))


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path (--out), or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_axioms(args) -> int:
    m = _load(args.params)
    report = check_axioms(m)
    for name, ok in (("R1", report.r1_ok), ("R2", report.r2_ok), ("R3", report.r3_ok)):
        line = f"{name}: {'pass' if ok else 'fail'}"
        if not ok:
            x, y = report.counterexamples[name]
            line += f" (X={{{format_indices(x)}}}, Y={{{format_indices(y)}}})"
        print(line)
    return EXIT_OK if report.passed else 1


def cmd_flats(args) -> int:
    m = _load(args.params)
    for f in flats(m):
        print(format_indices(f) if f else "(empty)")
    return EXIT_OK


def cmd_witness(args) -> int:
    m = _load(args.params)
    if args.eq in (3, 4) and args.kprime is None:
        print(f"--eq {args.eq} requires --kprime", file=sys.stderr)
        return EXIT_USAGE
    if args.eq not in (3, 4) and args.kprime is not None:
        print("--kprime goes with --eq 3 or --eq 4 only", file=sys.stderr)
        return EXIT_USAGE
    if args.verify is not None:
        w = MinorWitness.from_line(args.verify)
        ok = verify_witness(m, w)
        print(f"verified={str(ok).lower()}")
        return EXIT_OK if ok else 1
    if args.eq == 1:
        w = witness_eq1(m)
    elif args.eq == 2:
        w = witness_eq2(m)
    elif args.eq == 3:
        w = witness_eq3(m, args.kprime)
    else:
        w = witness_eq4(m, args.kprime)
    print(w.to_line())
    return EXIT_OK


def cmd_oracle(args) -> int:
    m = _load(args.params)
    if args.kprime is not None:
        size, w = oracle_max_uniform(m, args.kprime)
        print(f"k'={args.kprime} max_n'={size}")
        print(w.to_line())
    else:
        for kp, size in sorted(oracle_max_uniform_all(m).items()):
            print(f"k'={kp} max_n'={size}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    p = parse_params(args.params)
    print(compute_bounds(p).to_text())
    t = threshold_report(p)
    print(f"rate={t.rate}")
    print(f"rate_threshold={t.threshold}")
    print(f"improves_on_gopalan={str(t.improves).lower()}")
    print(f"threshold_near_boundary={str(t.near_boundary).lower()}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = sweep(args.k, args.r, args.n_min, args.n_max)
    lines = [f"# mrlrc sweep k={args.k} r={args.r} n={args.n_min}..{args.n_max}", SWEEP_HEADER]
    lines += [row.to_csv() for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_code(args) -> int:
    if args.code_cmd == "search":
        p = parse_params(args.params)
        field = parse_field(args.field)
        gm = search_mr_code(p, field, args.trials, args.seed)
        if gm is None:
            tried = f"{args.trials} trials" if args.trials is not None else "the trials the step limit admits"
            print(f"no MR code found in {tried}", file=sys.stderr)
            return EXIT_CERT
        _emit(write_matrix(gm), args.out)
        return EXIT_OK

    with open(args.file) as fh:
        gm = read_matrix(fh.read())

    if args.code_cmd == "check":
        if args.mr is not None:
            p = parse_params(args.mr)
            ok = is_mr_lrc(gm, p)
            print(f"MR: {str(ok).lower()}")
            return EXIT_OK if ok else EXIT_CERT
        ok = is_mds_code(gm)
        print(f"MDS: {str(ok).lower()}")
        return EXIT_OK if ok else EXIT_CERT

    cols = parse_indices(args.cols)
    f, x = (cols, 0) if args.code_cmd == "shorten" else (0, cols)
    _emit(write_matrix(shorten_then_puncture(gm, f, x)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mrlrc",
        description="Uniform minors and field-size bounds of maximally recoverable LRCs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("axioms", help="exhaustive rank-axiom check of the MR matroid")
    p.add_argument("params", help='parameters "n,k,r[:partition]"')
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("flats", help="list all flats")
    p.add_argument("params")
    p.set_defaults(func=cmd_flats)

    p = sub.add_parser("witness", help="construct or verify a uniform-minor witness")
    p.add_argument("params")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--eq", type=int, choices=(1, 2, 3, 4))
    how.add_argument("--verify", metavar="LINE", help="re-verify a serialized witness line")
    p.add_argument("--kprime", type=int, help="the minor's rank, with --eq 3 or --eq 4")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("oracle", help="exhaustive largest-uniform-minor search")
    p.add_argument("params")
    p.add_argument("--kprime", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="all sizes and field-size bounds for one triple")
    p.add_argument("params")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="CSV sweep of the size formulas over n")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("code", help="generator-matrix operations")
    csub = p.add_subparsers(dest="code_cmd", required=True)

    c = csub.add_parser("check", help="certify a matrix file as MDS or MR")
    c.add_argument("file")
    c.add_argument("--mr", metavar="PARAMS", help="certify as MR-LRC with these parameters")
    c.set_defaults(func=cmd_code)

    for name in ("puncture", "shorten"):
        c = csub.add_parser(name, help=f"{name} a matrix file at given columns")
        c.add_argument("file")
        c.add_argument("--cols", required=True, help="comma-separated column indices")
        c.add_argument("--out")
        c.set_defaults(func=cmd_code)

    c = csub.add_parser("search", help="seeded random search for an MR generator matrix")
    c.add_argument("params")
    c.add_argument("--field", required=True, help='field spec, e.g. "13" or "2^4" or "2^4:19"')
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--trials", type=int, help="trial budget (default: as many as the step limit admits)")
    c.add_argument("--out")
    c.set_defaults(func=cmd_code)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except SizeRefusal as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a crash, not a false answer (exit 1); traceback loads only when one happens
        import traceback

        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
