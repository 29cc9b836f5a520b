"""Input checks: every named target kind parses back from its string, inputs
past a size bound exit 2 with a message, and each argument check of a
constructor or function raises its error."""

import os
import re
import subprocess
import sys

import pytest

from congcert.cli import parse_instance_file
from congcert.decompose import _KINDS, GFKind, split_AB, validate_B_certificate
from congcert.errors import InvalidParameter, InvalidWindow, SemanticError
from congcert.oracles import count_overpartitions, count_partitions_multiset
from congcert.periods import (
    PartMultiset,
    empirical_min_period,
    kwong_period,
    ord_prime,
    verify_period_prefix,
)
from congcert.prover import CongruenceFamily
from congcert.search import SearchSpace
from congcert.series import (
    BinomialFactor,
    Modulus,
    ProductSpec,
    TailFamily,
    series_from_spec,
    series_mul,
)

BIG = str(10**20)

_INSTANCE = {"prime": "2", "exponent": "1", "delta": "2", "target": "plane_rowed(2)"}


def _instance_text(**keys):
    return "".join(f"{k} = {v}\n" for k, v in ({**_INSTANCE, **keys}).items())


@pytest.mark.parametrize("name", list(_KINDS))
class TestTargetKinds:
    """Each named kind, with parameters 2, parses back from its string; its
    parameter count is the arity of its `_KINDS` function."""

    def test_round_trip(self, name):
        arity = _KINDS[name].__code__.co_argcount
        kind = GFKind(name, (2,) * arity)
        assert parse_instance_file(_instance_text(target=str(kind))).target == kind

    def test_wrong_parameter_count(self, name):
        arity = _KINDS[name].__code__.co_argcount
        target = f"{name}({','.join(['2'] * (arity + 1))})"
        message = f"line 4: {name} takes {arity} parameter(s), got {arity + 1}"
        with pytest.raises(SemanticError, match="^" + re.escape(message) + "$"):
            parse_instance_file(_instance_text(target=target))


def test_unknown_kind():
    with pytest.raises(SemanticError, match="^line 4: unknown generating function 'planar'$"):
        parse_instance_file(_instance_text(target="planar(2)"))


def _instance(tmp_path, **keys):
    path = tmp_path / "instance.cfg"
    path.write_text(_instance_text(**keys) + "family = {0} == 0\n", encoding="utf-8")
    return str(path)


# (command, instance keys or None) for inputs past a size bound: each must
# exit 2 with a message, not hang or end in a traceback
OVER_BOUND = {
    "exponent": (["certify"], {"exponent": BIG}),
    "prime": (["certify"], {"prime": "100000000000000000039"}),
    "delta": (["certify"], {"delta": BIG}),
    "expand-length": (["expand", "--target", "partitions", "--prime", "2", "--length", BIG], None),
    "table-rows": (["table", "--rows", BIG], {}),
    "spot-check-n-max": (["spot-check", "--n-max", BIG], {}),
    "period-empirical": (
        ["period", "--multiset", ",".join(map(str, range(1, 61))), "--prime", "2", "--empirical"],
        None,
    ),
    "multiset-multiplicity": (["certify"], {"target": f"multiset(1:{BIG})"}),
    "raw-exponent": (["certify"], {"target": f"raw: (1-q^1)^-{BIG}"}),
    "raw-base": (["certify"], {"target": f"raw: (1-q^{BIG})^-1 (1-q^1)^-1"}),
    "raw-tail-scale": (["certify"], {"target": f"raw: tail((1-q^{BIG}n)^-1, from=1) (1-q^1)^-1"}),
    "period-prime": (["period", "--multiset", "1,2", "--prime", "100000000000000000039"], None),
    "period-digits": (["period", "--multiset", "1,2", "--prime", "2", "--power", "10000000"], None),
}


@pytest.mark.parametrize("case", list(OVER_BOUND))
def test_over_bound_input_exits_two_with_a_message(case, tmp_path):
    argv, keys = OVER_BOUND[case]
    if keys is not None:
        argv = argv + ["--instance", _instance(tmp_path, **keys)]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "congcert.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# malformed instance files: the file's text, written as latin-1 (None makes a
# directory), and the message of the one error line
MALFORMED = {
    "family-empty-residue": (_instance_text(family="{1,,2} == 0"), "line 5: bad family '{1,,2} == 0'"),
    "family-trailing-comma": (_instance_text(family="{1} == {2,}"), "line 5: bad family '{1} == {2,}'"),
    "family-no-comma": (_instance_text(family="{1 2} == 0"), "line 5: bad family '{1 2} == 0'"),
    "directory": (None, "Is a directory"),
    "not-utf8": (_instance_text(target="plane_rowed(\xff)"), "not UTF-8 text (byte 54)"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_instance_exits_two_with_one_error_line(case, tmp_path):
    text, message = MALFORMED[case]
    path = tmp_path / "instance.cfg"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text.encode("latin-1"))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "congcert.cli", "certify", "--instance", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr


MOD2 = Modulus(2, 1)
EULER = ProductSpec((TailFamily(sign=-1, start=1, exp_offset=-1),))
SERIES = series_from_spec(ProductSpec((BinomialFactor(-1, 2, -1),)), MOD2, 4)

# (call, exception type, message): each argument check, called directly
CHECKS = {
    "gfkind-multiset": (lambda: GFKind("multiset"), InvalidParameter,
                        "multiset target needs a nonempty multiset"),
    "gfkind-raw": (lambda: GFKind("raw"), InvalidParameter, "raw target needs a product spec"),
    "gfkind-raw-empty": (lambda: GFKind.from_raw(ProductSpec(())), InvalidParameter,
                         "raw target needs a product spec of at least one factor"),
    "split-factor-type": (lambda: split_AB(ProductSpec(("x",)), MOD2, 1), InvalidParameter,
                          "unknown factor type str"),
    "b-certificate-length": (lambda: validate_B_certificate(series_from_spec(EULER, MOD2, 3), 4),
                             InvalidParameter,
                             "validation length must be >= delta"),
    "split-delta": (lambda: split_AB(EULER, MOD2, 0), InvalidParameter, "delta must be >= 1"),
    "modulus-exponent": (lambda: Modulus(2, 0), InvalidParameter,
                         "modulus exponent must be >= 1"),
    "modulus-exponent-limit": (lambda: Modulus(3, 10**20), InvalidParameter,
                               f"modulus exponent {10**20} puts 3^{10**20} past the kernel limit"),
    "modulus-prime-limit": (lambda: Modulus(2**31 + 11, 1), InvalidParameter,
                            f"modulus base {2**31 + 11} exceeds the kernel limit 2147483648"),
    "modulus-value-limit": (lambda: Modulus(2, 40), InvalidParameter,
                            "modulus 1099511627776 exceeds the kernel limit 2147483648"),
    "series-empty": (lambda: series_mul([], [], MOD2), InvalidParameter,
                     "a series stores at least one coefficient"),
    "binomial-sign": (lambda: BinomialFactor(0, 1, 1), InvalidParameter, "sign must be +1 or -1"),
    "tail-sign": (lambda: TailFamily(sign=0, start=1, exp_offset=-1), InvalidParameter,
                  "sign must be +1 or -1"),
    "tail-scale": (lambda: TailFamily(sign=-1, start=1, exp_offset=-1, scale=0), InvalidParameter,
                   "base scale must be >= 1 so bases increase"),
    "tail-start": (lambda: TailFamily(sign=-1, start=0, exp_offset=-1), InvalidParameter,
                   "first factor base must be >= 1"),
    "expand-factor-type": (lambda: series_from_spec(ProductSpec(("x",)), MOD2, 4), InvalidParameter,
                           "unknown factor type str"),
    "expand-length-limit": (lambda: series_from_spec(EULER, MOD2, 10**20), InvalidParameter,
                            f"length {10**20} exceeds the largest array size"),
    "multiset-entry": (lambda: PartMultiset(((0, 1),)), InvalidParameter,
                       "part values and multiplicities must be >= 1"),
    "multiset-empty-text": (lambda: PartMultiset.parse(" , "), InvalidParameter,
                            "empty multiset text ' , '"),
    "ord-n": (lambda: ord_prime(0, 2), InvalidParameter, "n must be >= 1"),
    "ord-prime": (lambda: ord_prime(4, 4), InvalidParameter, "4 is not prime"),
    "kwong-exponent": (lambda: kwong_period(PartMultiset(((1, 1),)), 2, 0), InvalidParameter,
                       "exponent must be >= 1"),
    "prefix-period": (lambda: verify_period_prefix(SERIES, 0, 4), InvalidParameter,
                      "candidate period must be >= 1"),
    "min-period-window": (lambda: empirical_min_period(SERIES, 2, 1), InvalidParameter,
                          "window multiplier must be >= 2"),
    "min-period-length": (lambda: empirical_min_period(SERIES, 2, 3), InvalidWindow,
                          "series length 4 below window 6"),
    "family-delta": (lambda: CongruenceFamily(0, (0,), (), MOD2), InvalidParameter,
                     "delta must be >= 1"),
    "family-delta-limit": (lambda: CongruenceFamily(10**20, (0,), (), MOD2), InvalidParameter,
                           f"delta {10**20} exceeds the largest list size"),
    "search-delta": (lambda: SearchSpace(GFKind.partitions(), MOD2, 0, 2), InvalidParameter,
                     "delta must be >= 1"),
    "oracle-n": (lambda: count_overpartitions(-1), InvalidParameter, "n must be >= 0"),
    "oracle-count-n": (lambda: count_partitions_multiset(-1, PartMultiset(((1, 1),))),
                       InvalidParameter, "n must be >= 0"),
}


@pytest.mark.parametrize("case", list(CHECKS))
def test_argument_check_raises(case):
    call, error, message = CHECKS[case]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


# (flags after `oracle --counter`, message): a bound flag that the counter
# does not read is refused, not ignored, and the message names the flags
# it reads
UNREAD_ORACLE_FLAGS = {
    "plane-rowed-k": (["plane_rowed", "--n", "3", "--k", "1"],
                      "oracle plane_rowed does not read --k; it reads --r, --c"),
    "maxpart-k": (["maxpart", "--n", "5", "--k", "2"],
                  "oracle maxpart does not read --k; it reads --m"),
    "overplane-rowed-r": (["overplane_rowed", "--n", "3", "--r", "1"],
                          "oracle overplane_rowed does not read --r; it reads --k"),
    "partitions-m": (["partitions", "--n", "5", "--m", "2"],
                     "oracle partitions does not read --m; it reads no flag but --n"),
    "overpartitions-multiset": (["overpartitions", "--n", "4", "--multiset", "1"],
                                "oracle overpartitions does not read --multiset;"
                                " it reads no flag but --n"),
    "multiset-r-c": (["multiset", "--n", "3", "--multiset", "1,2", "--r", "2", "--c", "1"],
                     "oracle multiset does not read --r, --c; it reads --multiset"),
}


@pytest.mark.parametrize("case", list(UNREAD_ORACLE_FLAGS))
def test_oracle_refuses_a_flag_its_counter_does_not_read(case, capsys):
    from congcert.cli import run_command

    argv, message = UNREAD_ORACLE_FLAGS[case]
    assert run_command(["oracle", "--counter", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,count",
    [
        (["plane_rowed", "--n", "3", "--r", "1"], "3"),
        (["maxpart", "--n", "5", "--m", "2"], "3"),
        (["overplane_rowed", "--n", "3", "--k", "1"], "8"),
    ],
    ids=["plane-rowed-r", "maxpart-m", "overplane-rowed-k"],
)
def test_oracle_reads_its_own_flags(argv, count, capsys):
    from congcert.cli import run_command

    assert run_command(["oracle", "--counter", *argv]) == 0
    assert capsys.readouterr() == (f"{count}\n", "")
