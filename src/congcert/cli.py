"""Command-line front end: instance files, certification runs, searches,
period queries, expansions, oracle counts, and residue tables.

Exit codes: 0 all proved / success, 1 at least one counterexample or failed
check, 2 inapplicable target or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .decompose import GFKind, build_spec
from .errors import CongcertError, InvalidParameter, ParseError, SemanticError, SplitFailed
from .oracles import (
    count_overpartitions,
    count_partitions,
    count_partitions_max_part,
    count_partitions_multiset,
    count_plane_overpartitions_rowed,
    count_plane_partitions_rowed,
)
from .periods import PartMultiset, empirical_min_period, kwong_period
from .prover import (
    COUNTEREXAMPLE,
    INAPPLICABLE,
    CongruenceFamily,
    certify_all,
    spot_check,
)
from .search import SearchSpace, enumerate_candidates, search_certified
from .series import Modulus, series_from_spec

# Unused here; bound so that perfbench/tracing.py, which wraps this
# module-level name of this module, finds it.
from .prover import certify  # noqa: F401


@dataclass(frozen=True)
class InstanceFile:
    """Parsed key-value instance document."""

    modulus: Modulus
    delta: int
    target: GFKind
    families: tuple = ()
    max_terms: int | None = None
    n_max: int | None = None


# The optional keys, each an integer, are InstanceFile's fields after `families`.
_OPTIONAL = fields(InstanceFile)[4:]
_KNOWN_KEYS = {"prime", "exponent", "delta", "target", "family"} | {f.name for f in _OPTIONAL}


def _parse(where: str, parse, *args):
    """`parse(*args)`, a value's own parser, with `where` (`line N` or a
    flag) before its message: text it cannot read stays a ParseError, a
    value it refuses becomes a SemanticError."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None
    except InvalidParameter as exc:
        raise SemanticError(f"{where}: {exc}") from None


def parse_instance_file(text: str) -> InstanceFile:
    """Parse the line-oriented instance grammar; unknown keys are errors."""
    values = {}
    families_raw = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "family":
            families_raw.append((line_no, value))
            continue
        if key not in _KNOWN_KEYS:
            raise ParseError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {line_no}: duplicate key {key!r}")
        values[key] = (line_no, value)

    for required in ("prime", "exponent", "delta", "target"):
        if required not in values:
            raise ParseError(f"missing required key {required!r}")

    parsed = {}
    for key, (line_no, value) in values.items():
        if key == "target":
            continue
        try:
            parsed[key] = int(value)
        except ValueError:
            raise ParseError(f"line {line_no}: {key} must be an integer") from None

    try:
        modulus = Modulus(parsed.pop("prime"), parsed.pop("exponent"))
    except InvalidParameter as exc:
        raise SemanticError(str(exc)) from None
    delta = parsed.pop("delta")
    if delta < 1:
        raise SemanticError("delta must be >= 1")
    line_no, value = values["target"]
    target = _parse(f"line {line_no}", GFKind.parse, value)
    families = tuple(
        _parse(f"line {line_no}", CongruenceFamily.parse, value, delta, modulus)
        for line_no, value in families_raw
    )
    # what is left in `parsed` are the optional keys
    return InstanceFile(modulus, delta, target, families, **parsed)


def render_instance(instance: InstanceFile) -> str:
    """Instance back to text; parsing the result reproduces the instance."""
    lines = [
        f"prime = {instance.modulus.prime}",
        f"exponent = {instance.modulus.exponent}",
        f"delta = {instance.delta}",
        f"target = {instance.target}",
    ]
    lines += [f"family = {fam}" for fam in instance.families]
    for f in _OPTIONAL:
        if (value := getattr(instance, f.name)) is not None:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def certificate_doc(cert) -> dict:
    """The JSON object of one certificate, as `certify --json` and
    `search --json` print it."""
    doc = {
        "status": cert.status,
        "prime": cert.family.modulus.prime,
        "exponent": cert.family.modulus.exponent,
        "delta": cert.family.delta,
        "family": str(cert.family),
        "period": cert.period_used,
        "check_bound": cert.check_bound,
        "witness": None,
        "derivation": list(cert.derivation),
    }
    if cert.witness is not None:
        n, left_sum, right_sum = cert.witness
        doc["witness"] = {"n": n, "left_sum": left_sum, "right_sum": right_sum}
    if cert.reason is not None:
        doc["reason"] = cert.reason
    doc["degree_bound"] = cert.degree_bound
    return doc


def _print_certificate(cert, out):
    print(f"family {cert.family}  [target {cert.target}, mod {cert.family.modulus}]", file=out)
    if cert.a_multiset is not None:
        print(f"  head multiset: {cert.a_multiset}", file=out)
        print(
            f"  period {cert.period_used}  check bound {cert.check_bound}"
            f"  degree bound {cert.degree_bound}",
            file=out,
        )
    if cert.status == COUNTEREXAMPLE:
        n, ls, rs = cert.witness
        print(f"  status {cert.status} at n={n}: left {ls} != right {rs}", file=out)
    elif cert.status == INAPPLICABLE:
        print(f"  status {cert.status}: {cert.reason}", file=out)
    else:
        print(f"  status {cert.status}", file=out)


def _exit_code(certs) -> int:
    if any(c.status == INAPPLICABLE for c in certs):
        return 2
    if any(c.status == COUNTEREXAMPLE for c in certs):
        return 1
    return 0


def _given(*values):
    """The first value that is not None: an explicit 0 is given, not unset."""
    return next((v for v in values if v is not None), None)


def _load_instance(path: str) -> InstanceFile:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_instance_file(text)


# `period` refuses to print a longer period: 10^5 digits convert in a fifth
# of a second, and the cost of int-to-str grows quadratically with the length
_PERIOD_DIGITS = 100_000


def _int_text(value: int) -> str:
    """str(value) past Python's int-to-str digit limit, which guards the
    parsing of untrusted text, not the printing of a computed period."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6: no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _refuse_unread(command: str, unread, reads: str):
    """Exit 2 naming each given flag that `command` does not read."""
    unread = [flag for flag, value in unread if value is not None]
    if unread:
        raise SemanticError(f"{command} does not read {', '.join(unread)}; it reads {reads}")


def _cmd_period(args, out) -> int:
    if not args.empirical:
        _refuse_unread(
            "period without --empirical",
            [("--window", args.window)],
            "--multiset, --prime, --power",
        )
    window = _given(args.window, 3)
    if window < 2:
        raise SemanticError("--window must be >= 2")
    multiset = PartMultiset.parse(args.multiset)
    info = kwong_period(multiset, args.prime, args.power)
    if info.period >= 10**_PERIOD_DIGITS:
        raise SemanticError(
            f"the period has {info.period.bit_length()} bits, past the"
            f" {_PERIOD_DIGITS}-digit print limit"
        )
    observed = None
    if args.empirical:  # before anything is printed, so that a failure prints nothing
        modulus = Modulus(args.prime, args.power)
        series = series_from_spec(multiset.to_product_spec(), modulus, window * info.period)
        observed = empirical_min_period(series, info.period, window)
    print(_int_text(info.period), file=out)
    if observed is not None:
        print(f"empirical minimal period: {observed}", file=out)
        if observed != info.period:
            return 1
    return 0


def _cmd_expand(args, out) -> int:
    if args.instance:
        _refuse_unread(
            "expand --instance",
            [("--target", args.target), ("--prime", args.prime), ("--power", args.power)],
            "--length and the instance's target and modulus",
        )
        instance = _load_instance(args.instance)
        target, modulus = instance.target, instance.modulus
    else:
        if args.target is None or args.prime is None:
            raise SemanticError("expand needs --instance or --target/--prime/--power")
        target = _parse("--target", GFKind.parse, args.target)
        modulus = Modulus(args.prime, _given(args.power, 1))
    series = series_from_spec(build_spec(target), modulus, args.length)
    print(",".join(str(c) for c in series), file=out)
    return 0


def _cmd_certify(args, out) -> int:
    instance = _load_instance(args.instance)
    if not instance.families:
        raise SemanticError("instance declares no families to certify")
    certs = certify_all(instance.target, instance.families)
    if args.json:
        print(json.dumps([certificate_doc(c) for c in certs], indent=2), file=out)
    else:
        for cert in certs:
            _print_certificate(cert, out)
    return _exit_code(certs)


def _cmd_spot_check(args, out) -> int:
    instance = _load_instance(args.instance)
    if not instance.families:
        raise SemanticError("instance declares no families to check")
    n_max = _given(args.n_max, instance.n_max)
    if n_max is None:
        raise SemanticError("spot-check needs --n-max or an n_max key")
    failed = False
    for fam in instance.families:
        result = spot_check(instance.target, fam, n_max)
        if result.ok:
            print(f"family {fam}: ok for all n <= {n_max}", file=out)
        else:
            failed = True
            n, ls, rs = result.failure
            print(f"family {fam}: FAILS at n={n} (left {ls}, right {rs})", file=out)
    return 1 if failed else 0


def _cmd_search(args, out) -> int:
    instance = _load_instance(args.instance)
    max_terms = _given(args.max_terms, instance.max_terms)
    if max_terms is None:
        raise SemanticError("search needs --max-terms or a max_terms key")
    space = SearchSpace(
        target=instance.target,
        modulus=instance.modulus,
        delta=instance.delta,
        max_terms=max_terms,
    )
    candidates = enumerate_candidates(space)
    print(f"candidates: {len(candidates)}", file=out)
    certs = search_certified(
        space,
        redundancy_filter=args.filter_redundant,
        candidates=candidates,
    )
    if args.json:
        print(json.dumps([certificate_doc(c) for c in certs], indent=2), file=out)
    else:
        print(f"proved: {len(certs)}", file=out)
        for cert in certs:
            print(
                f"  {cert.family}  (period {cert.period_used}, check bound {cert.check_bound})",
                file=out,
            )
    return 0


def _count_multiset(args) -> int:
    if not args.multiset:
        raise SemanticError("oracle multiset needs --multiset")
    return count_partitions_multiset(args.n, PartMultiset.parse(args.multiset))


# the `oracle --counter` choices, each with the flags it reads besides --n
# and the count it prints
_COUNTERS = {
    "partitions": ((), lambda a: count_partitions(a.n)),
    "multiset": (("multiset",), _count_multiset),
    "maxpart": (("m",), lambda a: count_partitions_max_part(a.n, _given(a.m, a.n))),
    "plane_rowed": (("r", "c"), lambda a: count_plane_partitions_rowed(a.n, _given(a.r, a.n), a.c)),
    "overpartitions": ((), lambda a: count_overpartitions(a.n)),
    "overplane_rowed": (("k",), lambda a: count_plane_overpartitions_rowed(a.n, _given(a.k, a.n))),
}
_COUNTER_FLAGS = list(dict.fromkeys(flag for flags, _ in _COUNTERS.values() for flag in flags))


def _cmd_oracle(args, out) -> int:
    flags, count = _COUNTERS[args.counter]
    _refuse_unread(
        f"oracle {args.counter}",
        [(f"--{f}", getattr(args, f)) for f in _COUNTER_FLAGS if f not in flags],
        ", ".join(f"--{f}" for f in flags) or "no flag but --n",
    )
    if args.n < 0:  # checked once, before a counter's bound defaults to n
        raise SemanticError("--n must be >= 0")
    print(count(args), file=out)
    return 0


def _cmd_table(args, out) -> int:
    instance = _load_instance(args.instance)
    if not instance.families:
        raise SemanticError("instance declares no families to tabulate")
    rows = args.rows
    if rows < 1:
        raise SemanticError("--rows must be >= 1")
    delta, modulus = instance.delta, instance.modulus
    series = series_from_spec(build_spec(instance.target), modulus, delta * rows)
    for fam in instance.families:
        residues = fam.left + fam.right
        header = "  ".join(f"r={a}" for a in residues)
        print(f"family {fam}  [target {instance.target}, mod {modulus}, delta {delta}]", file=out)
        print(f"  n  {header}", file=out)
        for n in range(rows):
            cells = "  ".join(str(series[delta * n + a]) for a in residues)
            print(f"  {n}  {cells}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congcert",
        description="Certify partition congruence families from a finite coefficient check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", help="minimal period of a multiset generating function")
    p.add_argument("--multiset", required=True, help="e.g. 1,3:2,4:3")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--empirical", action="store_true", help="confirm on the expanded series")
    p.add_argument("--window", type=int, help="with --empirical: periods to compare (default 3)")

    p = sub.add_parser("expand", help="print series coefficients")
    p.add_argument("--instance")
    p.add_argument("--target")
    p.add_argument("--prime", type=int)
    p.add_argument("--power", type=int, help="with --target (default 1)")
    p.add_argument("--length", type=int, default=32)

    p = sub.add_parser("certify", help="certify every family in an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spot-check", help="test families directly up to n-max")
    p.add_argument("--instance", required=True)
    p.add_argument("--n-max", type=int, dest="n_max")

    p = sub.add_parser("search", help="enumerate and certify candidate families")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-terms", type=int, dest="max_terms")
    p.add_argument("--filter-redundant", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="brute-force combinatorial counts")
    p.add_argument("--counter", required=True, choices=list(_COUNTERS))
    p.add_argument("--n", type=int, required=True)
    for flag in _COUNTER_FLAGS:
        p.add_argument(f"--{flag}", type=str if flag == "multiset" else int)

    p = sub.add_parser("table", help="residue grids for the families of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--rows", type=int, default=6)
    return parser


_HANDLERS = {
    "period": _cmd_period,
    "expand": _cmd_expand,
    "certify": _cmd_certify,
    "spot-check": _cmd_spot_check,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
    "table": _cmd_table,
}


def run_command(argv, out=None) -> int:
    """Dispatch a CLI invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _HANDLERS[args.command](args, out)
    except BrokenPipeError:  # an OSError, but the reader is gone: no message
        return 2
    except (ParseError, SemanticError, InvalidParameter, SplitFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CongcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2


def main():
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`congcert search --json | head`): drop
        # the unwritten rest so the interpreter's flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
