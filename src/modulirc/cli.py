"""Command-line front end: classification, sweeps, verification, Segre and
connectivity queries, with machine-readable JSON/CSV output.

Exit codes: 0 success, 1 usage or validation error, 2 verification failure or
internal invariant violation.  JSON and CSV are the stable contract surfaces;
the table format is human-oriented only.
"""

import atexit
import os
import sys
from itertools import chain
from types import SimpleNamespace

# a command imports the layers it runs when it runs, so a call compiles no
# module it does not run: a count-only sweep loads segre alone, classify and
# candidate sweeps classifier, only verify loads numpy, and only JSON output
# loads jsontext, which needs no json module; a well-formed argv is parsed
# from the option table, and only help and usage errors load argparse (with
# gettext and locale, about 7 ms of a fresh call); the package's exports also
# read as attributes of this module
from . import __getattr__  # noqa: F401
from .params import (MAX_GENUS, MAX_K, ConsistencyError, ParameterError, _check_max_l,
                     _check_seed, derive_params, expected_dimension)

SCHEMA_VERSION = "3.0"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

# upper bounds of `verify`: each caps one loop of the oracle suites, so every
# accepted argv ends in bounded time and every value stays inside int64
MAX_TRIALS = 10**6            # seeded trials of each random suite
MAX_VERIFY_L = 12             # chain lengths 3..max_l
MAX_RANK_TUPLES = 10**5       # one array pass per rank tuple
MAX_CHAINS = 5 * 10**7        # rank tuples times degree vectors
# chains times twist vectors times genera: the trial count of the dimension
# suite, and the work of its cell-by-cell pass over chains whose routes disagree
MAX_CELLS = 10**9
# strata in one `segre` table; the all-r' table grows like r^2*g
MAX_STRATA = 10**6
# candidate-search work units in one `sweep`, ten search budgets: once the
# rows have spent more, the later rows are not searched and read `incomplete`
MAX_SWEEP_WORK = 10**7


def _write_json(fh, args, results, warnings):
    """Write the JSON envelope of `args.command`, the text that
    `json.dumps(envelope, indent=2) + "\n"` would give.  Its `inputs` echo
    every parsed option but the output's format and file, in the order
    `_COMMANDS` declares them, camelCased.  An iterator among `results` is
    written as a list, each item as it comes, one in memory at a time."""
    from .jsontext import dump
    # "max_l".title() is "Max_L"; a regex would cost a compile on every call
    inputs = {name[0] + name.title().replace("_", "")[1:]: value
              for name, value in vars(args).items()
              if name not in ("command", "func", "format", "out")}
    dump({"schemaVersion": SCHEMA_VERSION, "command": args.command,
          "inputs": inputs, "results": results, "warnings": warnings}, fh)


def _classify_table(report):
    lines = []
    p = report.params
    lines.append(f"(g, r, d, k) = ({p.g}, {p.r}, {p.d}, {report.k})   "
                 f"h = {p.h}, dim M = {p.dim_m}, "
                 f"expected dim = {expected_dimension(p, report.k)}")
    for desc in report.descriptors:
        d = desc.to_dict()
        lines.append(
            f"  {d['kind']:<21} dim {d['dimension']:>4} "
            f"(expected {d['expectedDim']:>4})  {d['status']:<21} "
            f"{d['genericImage']:<11} datum={d['datum']}")
    lines.append("  divisibility cross-check (literal vs constructive):")
    for row in report.thm_b:
        mark = "" if row.agree else "   <-- disagree"
        lines.append(f"    r1={row.r1}: divisor={row.divisor} "
                     f"literal={row.divides_k} constructive={row.constructive}{mark}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"


def _cmd_classify(args, out):
    from . import classifier
    p = derive_params(args.g, args.r, args.d)
    report = classifier.classify(p, args.k, include_candidates=args.include_candidates,
                                 include_mixed=args.include_mixed, max_l=args.max_l)
    if args.format == "json":
        # each descriptor's dict is built as it is written
        _write_json(out, args, report.to_dict(descriptors=iter), report.warnings)
    else:
        out.write(_classify_table(report))
    return EXIT_OK


def _sweep_rows(p, k_min, k_max, include_candidates, max_l):
    """One row per k in [k_min, k_max].  The expected-dimension counts are
    arithmetic: h unobstructed components, one of them torsion exactly when
    r_bar | k, and the obstructed ones from one sieve over r1.  Only the
    candidate search runs per k, until the sweep has spent MAX_SWEEP_WORK."""
    from . import segre
    if include_candidates:
        from . import classifier
    obstructed, disagree = segre.sieve_obstructed_expected(p, k_min, k_max)
    work = 0
    for k, n_obstructed, disagrees in zip(range(k_min, k_max + 1), obstructed, disagree):
        torsion = int(k % p.r_bar == 0)
        exp_dim = expected_dimension(p, k)
        dims = [exp_dim]
        kinds = []
        flags = ["divisibility-disagreement"] if disagrees else []
        if include_candidates and work > MAX_SWEEP_WORK:
            flags.append("incomplete")
        elif include_candidates:
            search = classifier.enumerate_candidates(p, k, max_l=max_l)
            work += search.work
            dims += [d.dimension for d in search.descriptors]
            kinds = [d.kind.value for d in search.descriptors]
            if search.reasons:
                flags.append("incomplete")
        yield {
            "k": k,
            "unobstructedExt": p.h - torsion,
            "unobstructedTorsion": torsion,
            "obstructedExpected": n_obstructed,
            "obstructedCandidate": kinds.count("OBSTRUCTED_CANDIDATE"),
            "notComponent": kinds.count("NOT_COMPONENT"),
            "expectedDim": exp_dim,
            "minDim": min(dims),
            "maxDim": max(dims),
            "flags": ";".join(flags),
        }


def _write_sweep(args, rows, fh):
    """Write the rows as they come, one row in memory at a time.  No CSV
    value is quoted: each is an int or a flag name."""
    if args.format == "json":
        _write_json(fh, args, {"rows": rows}, [])
        return
    first = next(rows)
    fh.write(",".join(first) + "\n")  # the header: the first row's keys
    # one format per line, in about 0.6 of the time csv.writer takes
    line = ",".join(["%s"] * len(first)) + "\n"
    fh.writelines(line % tuple(row.values()) for row in chain([first], rows))


def _cmd_sweep(args, out):
    p = derive_params(args.g, args.r, args.d)
    if args.k_min < 1 or args.k_max > MAX_K or args.k_min > args.k_max:
        raise ParameterError(
            f"need 1 <= k-min <= k-max <= {MAX_K}, got [{args.k_min}, {args.k_max}]")
    _check_max_l(args.max_l)
    if args.out == "":
        raise ParameterError("--out must name a file, got an empty path")
    # both formats write nothing before the first row is built, so an error
    # in building it exits with no output
    rows = _sweep_rows(p, args.k_min, args.k_max, args.include_candidates, args.max_l)
    if args.out:
        # the temp file bears this process's id and is created here, so a
        # file already at its name is neither written nor removed; its name
        # does not grow with the output's, which may be as long as a name can be
        tmp = os.path.join(os.path.dirname(args.out), f".modulirc-{os.getpid()}.tmp")
        made = False
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                made = True
                _write_sweep(args, rows, fh)
            os.replace(tmp, args.out)
        except BaseException as exc:
            if made:
                os.remove(tmp)
            if isinstance(exc, OSError):
                raise ParameterError(f"cannot write {args.out}: {exc.strerror}") from exc
            raise
    else:
        _write_sweep(args, rows, out)
    return EXIT_OK


def _cmd_verify(args, out):
    # below these a suite that reads the flag runs 0 trials and passes
    # vacuously: at --deg-bound 0 no slopes increase and every c_j = 0 fails
    # the claim's hypothesis; at 1, ranks (1, 1, 1) with degrees (-1, 0, 1)
    # at g = 2 is a trial of both grid suites
    for name, low in (("trials", 1), ("max_l", 3), ("rank_bound", 1),
                      ("deg_bound", 1), ("g_bound", 2), ("twist_bound", 1)):
        value = getattr(args, name)
        if value < low:
            flag = name.replace("_", "-")
            raise ParameterError(f"--{flag} must be >= {low}, got {value}")
    _check_seed(args.seed, "--seed")
    for flag, value, high in (("trials", args.trials, MAX_TRIALS),
                              ("g-bound", args.g_bound, MAX_GENUS),
                              ("max-l", args.max_l, MAX_VERIFY_L)):
        if value > high:
            raise ParameterError(f"--{flag} must be <= {high}, got {value}")
    lengths = range(3, args.max_l + 1)
    tuples = sum(args.rank_bound ** l for l in lengths)
    chains = sum((args.rank_bound * (2 * args.deg_bound + 1)) ** l for l in lengths)
    cells = sum((args.rank_bound * (2 * args.deg_bound + 1)) ** l
                * args.twist_bound ** (l - 1) for l in lengths) * (args.g_bound - 1)
    for count, what, flags, high in (
            (tuples, "rank tuples", "--max-l and --rank-bound", MAX_RANK_TUPLES),
            (chains, "chains", "--max-l, --rank-bound and --deg-bound", MAX_CHAINS),
            (cells, "cells", "--max-l, --rank-bound, --deg-bound, --twist-bound "
                             "and --g-bound", MAX_CELLS)):
        if count > high:
            raise ParameterError(f"{flags} give {count} {what}, more than {high}")
    from . import oracle
    reports = []
    warnings = []
    suite = args.suite

    if suite in ("all", "identities"):
        printed, corrected = oracle.verify_three_term_identities(
            trials=args.trials, seed=args.seed)
        reports += [printed, corrected]
        warnings.append(
            "documented discrepancy: the minus-sign three-term relation "
            "fails as displayed; the plus-sign form is the identity" if printed.failures
            else "three_term_printed: expected counterexamples were not found")
    if suite in ("all", "telescoping"):
        reports.append(oracle.verify_degree_telescoping(
            trials=args.trials, seed=args.seed))
    if suite in ("all", "claim"):
        reports.append(oracle.verify_claim_inequality(
            max_l=args.max_l, rank_bound=args.rank_bound,
            deg_bound=args.deg_bound, g_bound=args.g_bound))
    if suite in ("all", "dimensions"):
        reports.append(oracle.verify_dimension_laws())
        reports.append(oracle.verify_chain_dimension_equivalence(
            max_l=args.max_l, rank_bound=args.rank_bound,
            deg_bound=args.deg_bound, twist_bound=args.twist_bound,
            g_bound=args.g_bound))
    if suite in ("all", "counts"):
        reports.append(oracle.verify_component_counts())

    # every suite must pass but the printed relation, which must fail
    ok = all(r.passed == (r.suite != "three_term_printed") for r in reports)
    _write_json(out, args, {"reports": [r.to_dict() for r in reports],
                            "allExpectedPass": ok}, warnings)
    return EXIT_OK if ok else EXIT_FAILURE


def _segre_rows(p, r_primes):
    """One table row per r', with its strata from the least positive
    s = r'd (mod r) up to the dense one: the records of
    `segre.stratum_codimension`, by arithmetic.  Each s is positive and
    congruent to r'd by construction, and the first at or past the Segre
    bound, the dense one, is the generic s."""
    from . import segre
    for rp in r_primes:
        s_gen = segre.generic_segre(p, rp)
        bound = segre.segre_bound(p, rp)
        strata = [{"s": s, "codim": max(bound - s, 0), "nextS": s + p.r if s < s_gen else -1}
                  for s in range(s_gen % p.r or p.r, s_gen + 1, p.r)]
        yield {"rPrime": rp, "genericS": s_gen, "strata": strata}


def _cmd_segre(args, out):
    from . import segre
    p = derive_params(args.g, args.r, args.d)
    r_primes = [args.r_prime] if args.r_prime is not None else range(1, p.r)
    # a stratum per s = r'd (mod r) in (0, generic s]; a bad r' fails here, before output
    strata = sum(-(-segre.generic_segre(p, rp) // p.r) for rp in r_primes)
    if strata > MAX_STRATA:
        raise ParameterError(f"the table has {strata} strata, more than {MAX_STRATA}; "
                             "ask for one --r-prime")
    _write_json(out, args, {"table": _segre_rows(p, r_primes)}, [])
    return EXIT_OK


def _cmd_connect(args, out):
    from . import segre
    p = derive_params(args.g, args.r, args.d)
    res = segre.min_connecting_degree(p)
    warnings = []
    if res.mismatch:
        warnings.append(
            f"connectivity-closed-form-mismatch: derived minimal degree "
            f"{res.derived_k} differs from the closed form {res.paper_k}; "
            "both are reported, neither is reconciled")
    _write_json(out, args, {"derivedK": res.derived_k, "closedFormK": res.paper_k,
                            "witness": {"rPrime": res.witness_r_prime,
                                        "dPrime": res.witness_d_prime},
                            "mismatch": res.mismatch}, warnings)
    return EXIT_OK


# the flags of (g, r, d), which every command but verify takes
_GRD = (("--g", int, None, True, "curve genus (>= 2)"),
        ("--r", int, None, True, "bundle rank (>= 2)"),
        ("--d", int, None, True, "determinant degree"))

# command -> (function, help, options in declaration order); an option is
# (flag, type, default, required, help), its dest the flag without "--" and
# with "_" for "-", its type int, str, bool for a store_true flag, or a tuple
# of the values it may take
_COMMANDS = {
    "classify": (_cmd_classify, "list components at one degree", _GRD + (
        ("--k", int, None, True, "curve degree (>= 1)"),
        ("--max-l", int, 3, False, None),
        ("--include-candidates", bool, False, False, None),
        ("--include-mixed", bool, False, False, None),
        ("--format", ("json", "table"), "table", False, None))),
    "sweep": (_cmd_sweep, "component counts over a degree range", _GRD + (
        ("--k-min", int, None, True, None),
        ("--k-max", int, None, True, None),
        ("--max-l", int, 3, False, None),
        ("--include-candidates", bool, False, False, None),
        ("--out", str, None, False, None),
        ("--format", ("csv", "json"), "csv", False, None))),
    "verify": (_cmd_verify, "run the brute-force oracle suites", (
        ("--suite", ("all", "identities", "claim", "telescoping", "dimensions", "counts"),
         "all", False, None),
        ("--trials", int, 10000, False, None),
        ("--seed", int, 0, False, None),
        ("--max-l", int, 4, False, None),
        ("--rank-bound", int, 3, False, None),
        ("--deg-bound", int, 6, False, None),
        ("--g-bound", int, 4, False, None),
        ("--twist-bound", int, 3, False, None))),
    "segre": (_cmd_segre, "Segre stratification table", _GRD + (
        ("--r-prime", int, None, False, None),)),
    "connect": (_cmd_connect, "minimal two-point connecting degree", _GRD),
}


def build_parser():
    """The argparse parser of `_COMMANDS`: it writes every usage line, help
    text and error message, and is the reference `_parse` is tested against."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="modulirc",
                     description="Rational-curve component calculator for "
                                 "moduli of bundles with fixed determinant")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for flag, kind, default, required, text in options:
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=text)
            elif isinstance(kind, tuple):
                sp.add_argument(flag, choices=kind, default=default, help=text)
            else:
                sp.add_argument(flag, type=kind, default=default, required=required, help=text)
        sp.set_defaults(func=func)
    return parser


def _parse(argv):
    """The namespace `build_parser().parse_args(argv)` gives, with its keys in
    the same order, when argv is a command and its options as exact
    `--flag value` tokens and store_true flags, with every value of the right
    type and every required flag given; None for any other argv, which then
    goes to argparse for its help or its error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    spec = {flag: (flag[2:].replace("-", "_"), kind, default, required)
            for flag, kind, default, required, _ in options}
    values = {"command": argv[0]}
    values.update((dest, default) for dest, _, default, _ in spec.values())
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in spec:
            return None
        dest, kind, _, _ = spec[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a flag with no token left has no value
        # argparse takes the token after a flag as its value unless it reads
        # as an option: one that starts with "-" and is not a negative number
        if value[:1] == "-" and not value[1:].isdecimal():
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if any(required and values[dest] is None for dest, _, _, required in spec.values()):
        return None
    return SimpleNamespace(**values, func=func)


def _drop_buffered(out):
    """Point the file descriptor under `out` at the null device, so that the
    output still buffered for it is dropped when it is flushed, instead of
    failing again at exit."""
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, nothing to flush to
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv=None, out=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except ParameterError as exc:
        print(f"modulirc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"modulirc: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        # a write to `out` failed (a closed pipe, a full disk; `sweep --out`
        # reports its own file): the output is cut short, and the rest is dropped
        _drop_buffered(out)
        print(f"modulirc: error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    """Process entry point: `main()` on sys.argv, then exit with its code.

    Once the atexit handlers have run and both streams are flushed, the
    process ends without interpreter teardown, which would only free memory
    that the OS reclaims at exit; every file `main()` writes is closed before
    it returns.  A stream that is missing or fails to flush takes the
    `sys.exit` path, which reports the failure as a normal exit does.
    Tests and other in-process callers use `main()`."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
