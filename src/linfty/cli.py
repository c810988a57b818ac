"""Command-line surface.

Subcommands: check-jacobi, verify-contraction, verify-gauge, fill-horn,
dold-kan, bch, compose-table, verify-monodromy, run-suite, run-all.
Exit codes: 0 pass, 1 check failure, 2 usage or validation error.
Output is byte-stable for fixed inputs and seed; counterexamples are
printed in the canonical rendering so they can be replayed.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from linfty import acceptance
from linfty.algebra import check_jacobi, jacobi_arity, jacobi_cases
from linfty.bch_groupoid import compose, generalized_ch, monodromy_report
from linfty.fixtures import REPRESENTATIONS, Sampler, get_representation
from linfty.mc_gamma import Horn, dold_kan_compare, fill_horn_gamma, is_thin
from linfty.report import quote
from linfty.serialize import (
    LoadError,
    load_presentation,
    load_simplex,
    parse_vector,
    read_input,
    simplex_to_data,
)

PASS, CHECK_FAILURE, USAGE_ERROR = 0, 1, 2


def _verdict(reports, verbose: bool = False) -> int:
    """Print each report, in full or as its summary line; 0 if all
    passed, else 1."""
    reports = list(reports)
    for report in reports:
        print(report.report() if verbose else report.summary())
    return PASS if all(r.passed for r in reports) else CHECK_FAILURE


def _fits_budget(work: str, size: int, unit: str, budget: int,
                 options: str) -> bool:
    """Whether work of the given size is within its budget; if not, say
    so on stderr, naming the options that lower it."""
    if size > budget:
        print(f"{work} would check {size} {unit}, over the budget of "
              f"{budget}; lower {options}", file=sys.stderr)
    return size <= budget


# The most canonical tuples one check-jacobi run counts as cases.  It
# evaluates the Jacobi sum only on jacobi_candidates, so the bound is on
# the count rather than the work: the free class-3 algebra has 142,974
# tuples up to arity 3 and 3,399,040 up to arity 4, but 164 candidates
# at either, checked in about 0.01 s.
JACOBI_BUDGET = 200_000


def cmd_check_jacobi(args) -> int:
    algebra = load_presentation(args.algebra)
    n_max = jacobi_arity(algebra) if args.n_max is None else args.n_max
    if not _fits_budget(
        f"check-jacobi on {quote(algebra.name)} up to arity {n_max}",
        jacobi_cases(algebra, n_max), "tuples", JACOBI_BUDGET, "--n-max",
    ):
        return USAGE_ERROR
    index = algebra.lower_central().nilpotency_index
    nil = ("NOT nilpotent within the iteration cap" if index is None
           else f"nilpotent of index {index}")
    print(f"{algebra.name}: {algebra.dim} generators, "
          f"max arity {algebra.max_arity}, {nil}")
    return _verdict([check_jacobi(algebra, n_max)])


# The most Dupont harness work one check may start, in monomial x
# gauge-sequence pairs (harness_size): verify-contraction and
# verify-gauge, and criteria 1-4 of run-suite and run-all.  The pairs
# bound the work rather than count it: dupont_s walks the sequences once
# per orbit of the monomials under permutations of the vertices 1..n (the
# sweep below applies s to 1,200 monomials and walks 162 times).  The
# benchmark sweep (n = 4, degree 3) is 16,800 pairs and the default
# dimensions 1..3 at degree 4 are 4,300; over the budget are n = 4 at
# degree 4 (33,600), n = 5 at degree 2 (41,664) and dimensions 1..3 at
# degree 9 (26,000), each a check of seconds or more.
HARNESS_BUDGET = 20_000


def harness_size(dims, max_degree: int) -> int:
    """Monomials of degree <= max_degree times the increasing vertex
    sequences of sizes 1..n that the gauge walk of dupont_s can visit,
    summed over dims: a bound on a harness run, whose walks run once per
    vertex-permutation orbit of the monomials."""
    return sum(
        2 ** n * comb(max_degree + n, n) * (2 ** (n + 1) - 2) for n in dims
    )


def _within_budget(command: str, dims, max_degree: int, options: str) -> bool:
    return _fits_budget(
        f"{command} on dimension {', '.join(map(str, dims))} at degree "
        f"{max_degree}", harness_size(dims, max_degree),
        "monomial x vertex-sequence pairs", HARNESS_BUDGET, options,
    )


# verify command -> (help, the harness checks it runs per dimension)
VERIFY = {
    "verify-contraction": ("homotopy/projection identities on monomials",
                           ("contraction",)),
    "verify-gauge": ("gauge property and homotopy identities",
                     ("gauge", "gaugeify")),
}


def cmd_verify(args) -> int:
    dims = acceptance.HARNESS_DIMS if args.n is None else (args.n,)
    if not _within_budget(args.command, dims, args.max_degree,
                          "--n or --max-degree"):
        return USAGE_ERROR
    return _verdict(acceptance.harness_reports(
        VERIFY[args.command][1], dims, args.max_degree))


def cmd_fill_horn(args) -> int:
    algebra = load_presentation(args.algebra)
    faces = [load_simplex(path, algebra) for path in args.faces]
    positions = [j for j in range(args.n + 1) if j != args.missing]
    if len(faces) != len(positions):
        print(
            f"horn at dimension {args.n} missing {args.missing} needs "
            f"{len(positions)} faces, got {len(faces)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    for j, path, face in zip(positions, args.faces, faces):
        if face.n != args.n - 1:
            print(
                f"face {j} ({quote(path)}) has dimension {face.n}, "
                f"the horn needs dimension {args.n - 1}",
                file=sys.stderr,
            )
            return USAGE_ERROR
        # the filler is defined for gauge-fixed horns only; checked here on
        # input, not in fill_horn_gamma, which every series evaluation calls
        if not face.is_gauge_fixed():
            print(
                f"face {j} ({quote(path)}) is not gauge-fixed: s(value) != 0",
                file=sys.stderr,
            )
            return USAGE_ERROR
    horn = Horn(args.n, args.missing, dict(zip(positions, faces)))
    filler = fill_horn_gamma(horn)
    print(json.dumps(simplex_to_data(filler), indent=2))
    print(f"thin: {is_thin(filler)}", file=sys.stderr)
    return PASS


# The most columns one dold-kan comparison builds: abelian_chain has 135
# at n = 3, 994 at n = 6 (0.7 s) and 2,520 at n = 8 (3.9 s).
DOLD_KAN_BUDGET = 1_000


def dold_kan_size(algebra, n: int) -> int:
    """Whitney cells (x) symbols of total degree 1 and 2, plus degree
    <= 2 monomials (x) symbols x with a dt-word of length 1 - |x|."""
    cells = sum(
        comb(n + 1, total + 1 - d)
        for total in (1, 2) for d in algebra.degrees.values() if d <= total
    )
    words = sum(comb(n, 1 - d) for d in algebra.degrees.values() if d <= 1)
    return cells + comb(n + 2, 2) * words


def cmd_dold_kan(args) -> int:
    algebra = load_presentation(args.algebra)
    if not _fits_budget(
        f"dold-kan on {quote(algebra.name)} at n = {args.n}",
        dold_kan_size(algebra, args.n), "columns", DOLD_KAN_BUDGET, "--n",
    ):
        return USAGE_ERROR
    return _verdict([dold_kan_compare(algebra, args.n)], verbose=True)


def cmd_bch(args) -> int:
    algebra = load_presentation(args.algebra)
    mu = algebra.zero_vector()
    if args.mu:
        mu = parse_vector(read_input(args.mu, as_json=False).strip(), algebra)
    inputs = {}
    if args.inputs:
        for key, text in read_input(args.inputs).items():
            if not isinstance(text, str):
                raise LoadError(args.inputs, f"input {quote(key)} is not a rendered vector")
            # the key names a face of the n-simplex away from base vertex 0
            vertices = [int(ch) for ch in key] if key.isdecimal() else []
            if not (vertices and vertices == sorted(set(vertices))
                    and vertices[0] >= 1 and vertices[-1] <= args.n):
                raise LoadError(
                    args.inputs, f"input key {quote(key)} is not a string of "
                    f"strictly increasing vertex digits in 1..{args.n}")
            inputs[tuple(vertices)] = parse_vector(text, algebra)
    result = generalized_ch(algebra, args.n, mu, inputs)
    print(result.value.render())
    return PASS


def cmd_compose_table(args) -> int:
    algebra = load_presentation(args.algebra)
    if algebra.basis_of_degree(-1) or not algebra.is_nilpotent():
        print(
            "compose-table needs a nilpotent algebra in degrees >= 0",
            file=sys.stderr,
        )
        return USAGE_ERROR
    sampler = Sampler(args.seed)
    zero = algebra.zero_vector()
    for _ in range(args.samples):
        x = sampler.vector(algebra, 0)
        y = sampler.vector(algebra, 0)
        z = compose(algebra, zero, x, y)
        print(f"({x.render()}) * ({y.render()}) = {z.render()}")
    return PASS


def cmd_verify_monodromy(args) -> int:
    try:
        rep = get_representation(args.rep)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    return _verdict(
        [monodromy_report(args.rep, rep, Sampler(args.seed), args.samples)],
        verbose=True,
    )


def cmd_run_suite(args) -> int:
    if args.suite in acceptance.HARNESS and not _within_budget(
        f"run-suite {args.suite}", acceptance.HARNESS_DIMS, args.max_degree,
        "--max-degree",
    ):
        return USAGE_ERROR
    result = acceptance.run_criterion(
        args.suite, seed=args.seed, max_degree=args.max_degree
    )
    return _verdict([result], args.verbose)


def cmd_run_all(args) -> int:
    if not _within_budget("run-all", acceptance.HARNESS_DIMS, args.max_degree,
                          "--max-degree"):
        return USAGE_ERROR
    return _verdict(
        acceptance.run_all(seed=args.seed, max_degree=args.max_degree),
        args.verbose,
    )


def non_negative(text: str) -> int:
    """The argparse type of a size option: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive(text: str) -> int:
    """The argparse type of a size that must not be vacuous: an
    integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def vertex_count(text: str) -> int:
    """The argparse type of bch's --n: an integer in 1..9, as an input
    key names each vertex of its face by one digit."""
    value = positive(text)
    if value > 9:
        raise argparse.ArgumentTypeError(
            f"must be <= 9, got {value}: an input key names each vertex "
            "by one digit"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfty",
        description=(
            "Exact Lie theory for nilpotent L-infinity algebras: "
            "simplicial de Rham operators, gauge-fixed Maurer-Cartan "
            "solvers, horn fillers, and generalized Campbell-Hausdorff "
            "series."
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the deterministic samplers")
    parser.add_argument("--max-degree", type=non_negative, default=4,
                        help="polynomial degree bound for identity checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-jacobi", help="validate a presentation file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n-max", type=positive, default=None,
                   help="largest arity of the n-Jacobi rules checked "
                        "(default: 2 * max arity - 1, the largest whose "
                        "rule can fail)")
    p.set_defaults(fn=cmd_check_jacobi)

    for command, (text, _) in VERIFY.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--n", type=non_negative, default=None)
        p.add_argument("--max-degree", dest="max_degree", type=non_negative,
                       default=argparse.SUPPRESS)
        p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fill-horn", help="fill a gauge-fixed horn")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=non_negative, required=True)
    p.add_argument("--missing", type=int, required=True)
    p.add_argument("--faces", nargs="+", required=True)
    p.set_defaults(fn=cmd_fill_horn)

    p = sub.add_parser("dold-kan",
                       help="abelian comparison with normalized cochains")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=non_negative, required=True)
    p.set_defaults(fn=cmd_dold_kan)

    p = sub.add_parser("bch", help="generalized Campbell-Hausdorff value")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--mu", default=None,
                   help="file with the rendered base Maurer-Cartan element")
    p.add_argument("--inputs", default=None,
                   help="JSON file mapping index strings to rendered vectors")
    p.set_defaults(fn=cmd_bch)

    p = sub.add_parser("compose-table",
                       help="sampled composition table via thin fillers")
    p.add_argument("--algebra", required=True)
    p.add_argument("--samples", type=non_negative, default=10)
    p.set_defaults(fn=cmd_compose_table)

    p = sub.add_parser("verify-monodromy",
                       help="exact matrix monodromy identity")
    p.add_argument("--rep", choices=list(REPRESENTATIONS), required=True)
    p.add_argument("--samples", type=positive, default=20)
    p.set_defaults(fn=cmd_verify_monodromy)

    p = sub.add_parser("run-suite", help="run one acceptance criterion")
    p.add_argument("suite", choices=sorted(acceptance.CRITERIA))
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_run_suite)

    p = sub.add_parser("run-all", help="run the full acceptance suite")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code else PASS
    try:
        return args.fn(args)
    except LoadError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
