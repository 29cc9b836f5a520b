import io
import json
import os
import shlex
import sys

import pytest

from congcert import BinomialFactor, ParseError, SemanticError, TailFamily
from congcert.cli import (
    certificate_doc,
    parse_instance_file,
    render_instance,
    run_command,
)

THREE_ROWED = """\
# three-rowed congruences
prime = 3
exponent = 1
delta = 3
target = plane_rowed(3)
family = {2} == 0
family = {0} == {1}
"""

BOUNDED_PARTS = """\
prime = 5
exponent = 1
delta = 10
target = maxpart(4)
family = {6,7,8} == 0
family = {2,3,4} == 0
"""

TWO_ROWED_SEARCH = """\
prime = 2
exponent = 1
delta = 2
target = plane_rowed(2)
max_terms = 2
"""

OVERPLANE = """\
prime = 2
exponent = 2
delta = 4
target = overplane_rowed(4)
family = {1,2,3} == 0
"""


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def instance_path(tmp_path):
    def write(text, name="instance.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestParsing:
    def test_round_trip(self):
        inst = parse_instance_file(THREE_ROWED)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_round_trip_with_options(self):
        text = TWO_ROWED_SEARCH + "n_max = 50\n"
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst
        assert inst.max_terms == 2 and inst.n_max == 50

    def test_round_trip_multiset_target(self):
        text = "prime = 3\nexponent = 1\ndelta = 4\ntarget = multiset(1,3:2,4:3)\n"
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_round_trip_raw_target_with_tail(self):
        text = (
            "prime = 2\nexponent = 1\ndelta = 4\n"
            "target = raw: (1-q^1)^-1 (1+q^2)^3 tail((1-q^4n)^-1, from=4)\n"
            "family = {3} == 0\n"
        )
        inst = parse_instance_file(text)
        assert parse_instance_file(render_instance(inst)) == inst

    def test_parses_families(self):
        inst = parse_instance_file(THREE_ROWED)
        assert [str(f) for f in inst.families] == ["{2} == 0", "{0} == {1}"]
        assert inst.delta == 3 and inst.modulus.value == 3

    def test_parses_overplane_instance(self):
        inst = parse_instance_file(OVERPLANE)
        assert str(inst.target) == "overplane_rowed(4)"
        assert str(inst.families[0]) == "{1,2,3} == 0"
        assert inst.modulus.value == 4

    def test_raw_target_with_tail(self):
        text = (
            "prime = 2\nexponent = 1\ndelta = 4\n"
            "target = raw: (1-q^1)^-1 (1-q^3)^-3 tail((1-q^4n)^-1, from=4)\n"
        )
        inst = parse_instance_file(text)
        assert inst.target.spec.factors == (
            BinomialFactor(-1, 1, -1),
            BinomialFactor(-1, 3, -3),
            TailFamily(sign=-1, start=4, exp_offset=-1, scale=4),
        )

    def test_residue_beyond_delta_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("{2} == 0", "{5} == {2}"))

    def test_composite_prime_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("prime = 3", "prime = 6"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance_file(THREE_ROWED + "wibble = 3\n")

    def test_bad_builder_arity_rejected(self):
        with pytest.raises(SemanticError):
            parse_instance_file(THREE_ROWED.replace("plane_rowed(3)", "plane_rowed(3,4)"))

    def test_missing_required_key(self):
        with pytest.raises(ParseError):
            parse_instance_file("prime = 3\nexponent = 1\ndelta = 3\n")

    def test_comments_and_blanks_ignored(self):
        spaced = "\n# comment\n\n" + THREE_ROWED.replace("prime = 3", "prime = 3  # inline")
        assert parse_instance_file(spaced) == parse_instance_file(THREE_ROWED)


class TestPeriodCommand:
    def test_worked_example(self):
        code, out = run(["period", "--multiset", "1,3:2,4:3", "--prime", "3", "--power", "1"])
        assert code == 0
        assert out.splitlines()[0] == "108"

    def test_empirical_confirmation(self):
        code, out = run(
            ["period", "--multiset", "1,3:2,4:3", "--prime", "3", "--power", "1", "--empirical"]
        )
        assert code == 0
        assert "empirical minimal period: 108" in out

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_period_past_the_int_digit_limit(self):
        # 2^19999 has 6,021 digits, past Python's default int-to-str limit of
        # 4,300; the limit is lifted only while the period is printed
        limit = sys.get_int_max_str_digits()
        code, out = run(["period", "--multiset", "1", "--prime", "2", "--power", "20000"])
        assert code == 0 and sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{2**19999}\n"
        finally:
            sys.set_int_max_str_digits(limit)


class TestCertifyCommand:
    def test_proved_instance_exits_zero(self, instance_path):
        code, out = run(["certify", "--instance", instance_path(THREE_ROWED)])
        assert code == 0
        assert out.count("status PROVED") == 2
        assert "period 6" in out and "check bound 2" in out

    def test_counterexample_exits_one(self, instance_path):
        text = THREE_ROWED.replace("family = {2} == 0", "family = {1} == 0")
        code, out = run(["certify", "--instance", instance_path(text)])
        assert code == 1
        assert "COUNTEREXAMPLE" in out

    def test_inapplicable_exits_two(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane\nfamily = {0} == {1}\n"
        code, out = run(["certify", "--instance", instance_path(text)])
        assert code == 2
        assert "INAPPLICABLE" in out

    def test_json_document_fields(self, instance_path):
        code, out = run(["certify", "--instance", instance_path(OVERPLANE), "--json"])
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        doc = docs[0]
        assert doc["status"] == "PROVED"
        assert (doc["prime"], doc["exponent"], doc["delta"]) == (2, 2, 4)
        assert doc["family"] == "{1,2,3} == 0"
        assert (doc["period"], doc["check_bound"]) == (96, 24)
        assert doc["witness"] is None
        assert isinstance(doc["derivation"], list) and doc["derivation"]

    def test_witness_document(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane_rowed(2)\nfamily = {0} == 0\n"
        code, out = run(["certify", "--instance", instance_path(text), "--json"])
        assert code == 1
        doc = json.loads(out)[0]
        assert doc["witness"] == {"n": 0, "left_sum": 1, "right_sum": 0}

    def test_missing_file_exits_two(self):
        code, _ = run(["certify", "--instance", "/nonexistent/path.cfg"])
        assert code == 2


class TestSpotCheckCommand:
    def test_ok_run(self, instance_path):
        code, out = run(
            ["spot-check", "--instance", instance_path(THREE_ROWED), "--n-max", "300"]
        )
        assert code == 0
        assert out.count("ok for all n <= 300") == 2

    def test_failing_run(self, instance_path):
        text = THREE_ROWED.replace("family = {2} == 0", "family = {0} == 0")
        code, out = run(["spot-check", "--instance", instance_path(text), "--n-max", "50"])
        assert code == 1
        assert "FAILS at n=0" in out


class TestSearchCommand:
    def test_two_rowed_search(self, instance_path):
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH)])
        assert code == 0
        assert "candidates: 3" in out
        assert "proved: 1" in out
        assert "{0} == {1}" in out

    def test_json_output(self, instance_path):
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH), "--json"])
        assert code == 0
        body = out[out.index("["):]
        docs = json.loads(body)
        assert [d["family"] for d in docs] == ["{0} == {1}"]

    def test_inapplicable_search_exits_two(self, instance_path):
        text = "prime = 2\nexponent = 1\ndelta = 2\ntarget = plane\nmax_terms = 2\n"
        code, _ = run(["search", "--instance", instance_path(text)])
        assert code == 2

    def test_too_large_space_exits_two_at_once(self, capsys, instance_path):
        # counted before any family is built: delta 20,000 with three terms
        # has 4.0 * 10^12 candidates
        text = TWO_ROWED_SEARCH.replace("delta = 2", "delta = 20000")
        code, out = run(["search", "--instance", instance_path(text), "--max-terms", "3"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: SpaceTooLarge: more than 1000000 candidates; lower max_terms or delta\n"
        )

    def test_threads_flag_removed(self, instance_path):
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH), "--threads", "2"])
        assert code == 2 and out == ""


class TestOracleCommand:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (["oracle", "--counter", "partitions", "--n", "5"], "7"),
            (["oracle", "--counter", "overpartitions", "--n", "4"], "14"),
            (["oracle", "--counter", "plane_rowed", "--n", "3", "--r", "3"], "6"),
            (["oracle", "--counter", "overplane_rowed", "--n", "3", "--k", "3"], "16"),
            (["oracle", "--counter", "maxpart", "--n", "6", "--m", "4"], "9"),
            (["oracle", "--counter", "multiset", "--n", "2", "--multiset", "1:2,2:3,3"], "6"),
        ],
    )
    def test_counts(self, argv, want):
        code, out = run(argv)
        assert code == 0 and out.strip() == want

    def test_counter_choices_are_the_dispatch_table(self, capsys):
        from congcert.cli import _COUNTERS

        code, out = run(["oracle", "--counter", "pentagons", "--n", "3"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "invalid choice: 'pentagons'" in err and all(name in err for name in _COUNTERS)

    def test_count_above_cap_exits_two(self, capsys):
        code, out = run(["oracle", "--counter", "partitions", "--n", "100000"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ComplexityGuard: partition count capped")


class TestExpandCommand:
    def test_explicit_target(self):
        code, out = run(
            ["expand", "--target", "plane_rowed(4)", "--prime", "2", "--length", "13"]
        )
        assert code == 0
        assert out.strip() == "1,1,1,0,1,1,1,0,1,1,1,0,0"

    def test_plane_target_expands(self):
        # one net exponent per base below the length: the heap and one inverse
        code, out = run(["expand", "--target", "plane", "--prime", "3", "--length", "2000"])
        assert code == 0
        coeffs = out.strip().split(",")
        assert len(coeffs) == 2000 and coeffs[:8] == ["1", "1", "0", "0", "1", "0", "0", "2"]

    @pytest.mark.parametrize(
        "target,message",
        [
            ("plane_rowed(y)", "plane_rowed parameters must be integers, got 'y'"),
            ("raw:(1-q^0)^-1", "base must be >= 1"),
        ],
        ids=["parameter", "raw-base"],
    )
    def test_target_flag_errors_name_the_flag(self, target, message, capsys):
        code, out = run(["expand", "--target", target, "--prime", "2"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: --target: {message}\n"

    def test_plane_head_range_names_the_flag(self, capsys):
        code, out = run(["expand", "--target", "plane_head(1)", "--prime", "2"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: --target: plane_head needs a parameter >= 2\n"


TABLE_FIRST = [[4, 1, 0], [4, 2, 4], [1, 0, 4], [3, 1, 1], [0, 2, 3], [0, 0, 0]]
TABLE_SECOND = [[2, 3, 0], [4, 4, 2], [1, 0, 4], [1, 3, 1], [0, 4, 1], [0, 0, 0]]


class TestTableCommand:
    def test_reproduces_residue_grids(self, instance_path):
        code, out = run(["table", "--instance", instance_path(BOUNDED_PARTS), "--rows", "6"])
        assert code == 0
        grids = []
        current = None
        for line in out.splitlines():
            if line.startswith("family"):
                current = []
                grids.append(current)
            elif current is not None and line.strip() and not line.strip().startswith("n "):
                cells = [int(tok) for tok in line.split()]
                current.append(cells[1:])  # drop the n column
        assert grids == [TABLE_FIRST, TABLE_SECOND]


class TestCommittedInstances:
    INSTANCE_DIR = __import__("os").path.join(
        __import__("os").path.dirname(__file__), "..", "instances"
    )

    def test_all_parse_and_render_round_trip(self):
        import os

        names = sorted(os.listdir(self.INSTANCE_DIR))
        assert len(names) >= 6
        for name in names:
            with open(os.path.join(self.INSTANCE_DIR, name)) as handle:
                inst = parse_instance_file(handle.read())
            assert parse_instance_file(render_instance(inst)) == inst, name

    @pytest.mark.parametrize(
        "name",
        [
            "four_rowed_mod2.cfg",
            "eight_rowed_mod2.cfg",
            "nine_rowed_mod3.cfg",
            "overplane_four_mod4.cfg",
            "bounded_parts_mod5.cfg",
        ],
    )
    def test_committed_instances_certify(self, name):
        import os

        code, out = run(["certify", "--instance", os.path.join(self.INSTANCE_DIR, name)])
        assert code == 0, out
        assert "COUNTEREXAMPLE" not in out

    def test_eleven_rowed_counterexample(self):
        import os

        path = os.path.join(self.INSTANCE_DIR, "eleven_rowed_mod11.cfg")
        code, out = run(["certify", "--instance", path, "--json"])
        assert code == 1
        (doc,) = json.loads(out)
        assert doc["status"] == "COUNTEREXAMPLE"
        assert doc["witness"] == {"n": 0, "left_sum": 1, "right_sum": 0}

    def test_twentyseven_rowed_counterexample(self):
        # period 2.2e12: only the degree bound keeps the check small
        import os

        path = os.path.join(self.INSTANCE_DIR, "twentyseven_rowed_mod3.cfg")
        code, out = run(["certify", "--instance", path, "--json"])
        assert code == 1
        (doc,) = json.loads(out)
        assert doc["status"] == "COUNTEREXAMPLE"
        assert doc["witness"] == {"n": 0, "left_sum": 1, "right_sum": 0}
        assert (doc["period"], doc["check_bound"]) == (2_168_462_696_400, 80_313_433_200)
        assert doc["degree_bound"] == 4652

    def test_text_certificate_prints_both_bounds(self):
        import os

        path = os.path.join(self.INSTANCE_DIR, "four_rowed_mod2.cfg")
        code, out = run(["certify", "--instance", path])
        assert code == 0
        assert out.count("  period 12  check bound 3  degree bound 8\n") == 3

    def test_numerator_head_instance(self):
        import os

        path = os.path.join(self.INSTANCE_DIR, "numerator_head_mod3.cfg")
        code, out = run(["certify", "--instance", path, "--json"])
        assert code == 1
        proved, failed = json.loads(out)
        assert (proved["family"], proved["status"]) == ("{0} == {2}", "PROVED")
        assert (proved["period"], proved["check_bound"]) == (6, 2)
        assert proved["derivation"] == ["power-reduce: (1-q^1)^6 -> (1-q^3)^2"]
        assert (failed["family"], failed["status"]) == ("{1} == 0", "COUNTEREXAMPLE")
        assert failed["witness"] == {"n": 1, "left_sum": 1, "right_sum": 0}

    def test_unsupported_numerator_is_inapplicable(self, instance_path):
        path = instance_path(
            "prime = 2\nexponent = 1\ndelta = 2\n"
            "target = raw: (1-q^1)^1 (1-q^3)^-1\nfamily = {0} == {1}\n"
        )
        code, out = run(["certify", "--instance", path, "--json"])
        assert code == 2
        (doc,) = json.loads(out)
        assert doc["status"] == "INAPPLICABLE"
        assert doc["reason"] == "SplitFailed: numerator (1-q^1)^1 is not supported on 2Z"

    def test_committed_search_instance(self):
        import os

        path = os.path.join(self.INSTANCE_DIR, "two_rowed_search.cfg")
        code, out = run(["search", "--instance", path])
        assert code == 0
        assert "candidates: 3" in out and "{0} == {1}" in out


# Targets the split rejects, each written as an instance with one family:
# an unsupported numerator, and plus and minus tails that cancel.
INAPPLICABLE_INSTANCES = (
    "prime = 2\nexponent = 1\ndelta = 2\n"
    "target = raw: (1-q^1)^1 (1-q^3)^-1\nfamily = {0} == {1}\n",
    "prime = 2\nexponent = 1\ndelta = 2\ntarget = overpartitions\nfamily = {1} == 0\n",
)

# The three spaces of the benchmark's search sweep: prime, exponent, delta,
# target, max_terms.
SWEEP_SPACES = (
    (2, 1, 8, "plane_rowed(8)", 6),
    (7, 1, 7, "plane_rowed(7)", 6),
    (2, 2, 4, "overplane_rowed(4)", 7),
)


def test_inapplicable_instances_are_split_failed(instance_path):
    # INAPPLICABLE means only that the target does not split
    for text in INAPPLICABLE_INSTANCES:
        code, out = run(["certify", "--instance", instance_path(text), "--json"])
        docs = json.loads(out)
        assert code == 2 and docs
        assert all(d["status"] == "INAPPLICABLE" for d in docs)
        assert all(d["reason"].startswith("SplitFailed: ") for d in docs)


def _verdict_runs(tmp_path):
    """`certify --json` and text on every committed instance and on targets
    the split rejects, and `search --json --filter-redundant` on the sweep
    spaces and on one rejected target: each run's argv, exit code, stdout
    and stderr."""
    import contextlib

    runs = []
    instance_dir = TestCommittedInstances.INSTANCE_DIR
    paths = [os.path.join(instance_dir, name) for name in sorted(os.listdir(instance_dir))]
    for k, text in enumerate(INAPPLICABLE_INSTANCES):
        paths.append(tmp_path / f"inapplicable_{k}.cfg")
        paths[-1].write_text(text)
    for path in paths:
        runs.append(["certify", "--instance", str(path), "--json"])
        runs.append(["certify", "--instance", str(path)])
    for k, (prime, exponent, delta, target, max_terms) in enumerate(SWEEP_SPACES):
        path = tmp_path / f"space_{k}.cfg"
        path.write_text(f"prime = {prime}\nexponent = {exponent}\ndelta = {delta}\n"
                        f"target = {target}\nmax_terms = {max_terms}\n")
        runs.append(["search", "--instance", str(path), "--json", "--filter-redundant"])
    rejected = ["search", "--instance", str(paths[-2]), "--json", "--filter-redundant"]
    runs.append(rejected + ["--max-terms", "2"])
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(argv)
        yield argv, code, out, err.getvalue()


def _verdict_digest(runs) -> str:
    import hashlib

    records = [
        f"{argv[0]} {os.path.basename(argv[2])} {argv[3:]}: exit {code}\n{out}{err}"
        for argv, code, out, err in runs
    ]
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]


def _without_derivation(out: str) -> str:
    """A `--json` run's stdout with the "derivation" key taken out of every
    document; the line `search` prints before the JSON is kept."""
    head, bracket, body = out.partition("[")
    if not bracket:
        return out
    docs = json.loads(bracket + body)
    for doc in docs:
        del doc["derivation"]
    return head + json.dumps(docs, indent=2) + "\n"


class TestVerdictDigest:
    def test_cli_verdict_digest(self, tmp_path):
        # Any change to a verdict, witness, bound, reason, derivation or
        # error message changes the digest; re-recorded when tails,
        # multisets and derivation steps began to print in instance syntax,
        # which changed printed forms only (`test_cli_verdict_value_digest`
        # did not change).
        assert _verdict_digest(_verdict_runs(tmp_path)) == "2b01e99c767f54d5"

    def test_cli_verdict_digest_without_derivations(self, tmp_path):
        # The same runs with no derivation in the JSON: a change to how a
        # rewrite is written leaves it alone, any change to a verdict,
        # witness, bound, reason or error message changes it.  Re-recorded
        # when targets and head multisets began to print in instance syntax.
        runs = [
            (argv, code, _without_derivation(out) if "--json" in argv else out, err)
            for argv, code, out, err in _verdict_runs(tmp_path)
        ]
        assert _verdict_digest(runs) == "9a4998488132b8b3"

    def test_cli_verdict_value_digest(self, tmp_path):
        # Values only, none of their printed forms: each run's exit code,
        # whether it wrote to stderr, the text `search` prints before its
        # JSON, and each JSON certificate's family, status, witness, period,
        # check bound, degree bound and the exception type of its reason.
        # Recorded before targets, multisets and derivation steps began to
        # print in instance syntax.
        import hashlib

        records = []
        for argv, code, out, err in _verdict_runs(tmp_path):
            head, bracket, body = out.partition("[") if "--json" in argv else ("", "", "")
            values = [
                (d["family"], d["status"], d["witness"], d["period"], d["check_bound"],
                 d["degree_bound"], d.get("reason", "").split(":")[0])
                for d in (json.loads(bracket + body) if bracket else [])
            ]
            key = (argv[0], os.path.basename(argv[2]), argv[3:])
            records.append(repr((*key, code, head, values, bool(err))))
        assert hashlib.sha256("\n".join(records).encode()).hexdigest()[:16] == "d7506f1da9b0d680"


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_expand_from_instance(self, instance_path):
        code, out = run(
            ["expand", "--instance", instance_path(THREE_ROWED), "--length", "6"]
        )
        assert code == 0
        # 3-rowed plane partition counts 1,1,3,6,12,21 reduced mod 3
        assert out.strip() == "1,1,0,0,0,0"

    def test_certificate_doc_shape(self, instance_path):
        from congcert import CongruenceFamily, GFKind, Modulus, certify

        cert = certify(
            GFKind.plane_rowed(3), CongruenceFamily(3, (2,), (), Modulus(3, 1))
        )
        doc = certificate_doc(cert)
        assert set(doc) == {
            "status", "prime", "exponent", "delta", "family",
            "period", "check_bound", "witness", "derivation", "degree_bound",
        }


class TestRemovedKeys:
    def test_window_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key 'window'"):
            parse_instance_file(THREE_ROWED + "window = 3\n")

    def test_validation_length_key_exits_two(self, capsys, instance_path):
        # the split derives its validation length from the product
        code, out = run(["certify", "--instance", instance_path(THREE_ROWED + "validation_length = 500\n")])
        assert code == 2 and out == ""
        assert "unknown key 'validation_length'" in capsys.readouterr().err

    def test_allow_zero_right_key_exits_two(self, capsys, instance_path):
        # every search keeps its {a} == 0 families
        path = instance_path(TWO_ROWED_SEARCH + "allow_zero_right = false\n")
        code, out = run(["search", "--instance", path])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: line 6: unknown key 'allow_zero_right'\n"

    def test_cap_flag_exits_two(self, instance_path):
        # the candidate cap is the module constant search.CANDIDATE_CAP
        code, out = run(["search", "--instance", instance_path(TWO_ROWED_SEARCH), "--cap", "10"])
        assert code == 2 and out == ""


class TestResourceFailures:
    def test_memory_error_exits_two_with_message(self, monkeypatch, capsys, instance_path):
        import congcert.cli as cli

        def exhausted(args, out):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "certify", exhausted)
        code, out = run(["certify", "--instance", instance_path(THREE_ROWED)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: out of memory in certify\n"

    def test_broken_pipe_exits_two(self, instance_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        path = instance_path(TWO_ROWED_SEARCH)
        assert run_command(["search", "--instance", path, "--json"], out=ClosedPipe()) == 2

    def test_main_with_closed_stdout_exits_two_without_traceback(self, instance_path):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "congcert.cli", "search", "--json",
                "--instance", instance_path(TWO_ROWED_SEARCH)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err and "Exception ignored" not in err


class TestExplicitZero:
    """0 is a value, not "unset": each is rejected with exit 2 and a message."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["expand", "--target", "plane_rowed(4)", "--prime", "2", "--length", "0"],
             "length must be >= 1"),
            (["table", "--rows", "0"], "--rows must be >= 1"),
            (["search", "--max-terms", "0"], "max_terms must be >= 1"),
            (["spot-check", "--n-max", "0"], "n_max must be >= 1"),
            (["oracle", "--counter", "maxpart", "--n", "5", "--m", "0"], "max_part must be >= 1"),
            (["oracle", "--counter", "plane_rowed", "--n", "5", "--r", "0"],
             "max_rows must be >= 1"),
            (["oracle", "--counter", "overplane_rowed", "--n", "5", "--k", "0"],
             "max_rows must be >= 1"),
            (["period", "--multiset", "1,2", "--prime", "2", "--empirical", "--window", "0"],
             "--window must be >= 2"),
        ],
        ids=["length", "rows", "max-terms", "n-max", "m", "r", "k", "window"],
    )
    def test_flag(self, argv, message, capsys, instance_path):
        if argv[0] in ("table", "search", "spot-check"):
            argv = argv[:1] + ["--instance", instance_path(THREE_ROWED)] + argv[1:]
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("n,c", [(3, -1), (0, -1), (5, 0)])
    def test_plane_rowed_columns(self, n, c, capsys):
        # n = 0 is rejected too: no check may depend on the count's shortcut
        argv = ["oracle", "--counter", "plane_rowed", "--n", str(n), "--r", "2", "--c", str(c)]
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: max_cols must be >= 1")

    def test_plane_rowed_one_column(self):
        # one column of at most 3 rows: the partitions of 3 into at most 3 parts
        code, out = run(["oracle", "--counter", "plane_rowed", "--n", "3", "--r", "3", "--c", "1"])
        assert code == 0 and out.strip() == "3"

    @pytest.mark.parametrize(
        "key,argv,message",
        [
            # the cap is the module constant search.CANDIDATE_CAP, not a key
            ("cap", ["search", "--max-terms", "2"], "line 8: unknown key 'cap'"),
            ("max_terms", ["search"], "max_terms must be >= 1"),
            ("n_max", ["spot-check"], "n_max must be >= 1"),
        ],
    )
    def test_instance_key(self, key, argv, message, capsys, instance_path):
        path = instance_path(THREE_ROWED + f"{key} = 0\n")
        code, out = run(argv[:1] + ["--instance", path] + argv[1:])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_unset_flags_keep_their_defaults(self, instance_path):
        code, out = run(["expand", "--target", "plane_rowed(2)", "--prime", "2"])
        assert code == 0 and len(out.split(",")) == 32
        code, out = run(["table", "--instance", instance_path(THREE_ROWED)])
        assert code == 0 and out.count("\n") == 2 * (2 + 6)
        code, out = run(["oracle", "--counter", "maxpart", "--n", "5"])
        assert (code, out) == (0, "7\n")


class TestNonIntegerInput:
    """A parameter that is not an integer is a usage error (exit 2) naming
    the bad entry, never a traceback."""

    @pytest.mark.parametrize(
        "target,message",
        [
            ("plane_rowed(x)", "line 4: plane_rowed parameters must be integers, got 'x'"),
            ("multiset(1,x)", "line 4: multiset entry 'x' is not 'v' or 'v:mult' with integers"),
        ],
    )
    def test_instance_target(self, target, message, capsys, instance_path):
        path = instance_path(f"prime = 2\nexponent = 1\ndelta = 2\ntarget = {target}\n")
        code, out = run(["certify", "--instance", path])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["period", "--multiset", "a", "--prime", "2"],
             "multiset entry 'a' is not 'v' or 'v:mult' with integers"),
            (["oracle", "--counter", "multiset", "--n", "3", "--multiset", "1:x"],
             "multiset entry '1:x' is not 'v' or 'v:mult' with integers"),
        ],
        ids=["period", "oracle"],
    )
    def test_multiset_flag(self, argv, message, capsys):
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


BARE = "prime = 3\nexponent = 1\ndelta = 3\ntarget = plane_rowed(3)\n"


class TestMalformedInput:
    """Each malformed instance or flag exits 2 with its message on stderr
    and nothing on stdout.  `instance` is the whole instance text when it
    has a target line, else the target that replaces THREE_ROWED's; None
    runs argv without an instance."""

    @pytest.mark.parametrize(
        "instance,argv,message",
        [
            ("raw: (1-q^1)^-1 x", ["certify"], "line 5: cannot parse factor at ...'x'"),
            ("raw:", ["certify"], "line 5: empty raw product"),
            ("plane rowed", ["certify"], "line 5: bad target 'plane rowed'"),
            ("multiset", ["certify"], "line 5: multiset target needs entries"),
            ("raw: (1-q^0)^-1", ["certify"], "line 5: base must be >= 1"),
            ("raw: tail((1-q^n)^0, from=1)", ["certify"],
             "line 5: tail exponent must not vanish identically"),
            ("plane_head(1)", ["certify"], "line 5: plane_head needs a parameter >= 2"),
            (THREE_ROWED + "delta\n", ["certify"], "line 8: expected 'key = value', got 'delta'"),
            (THREE_ROWED + "prime = 3\n", ["certify"], "line 8: duplicate key 'prime'"),
            (THREE_ROWED + "n_max = x\n", ["spot-check"], "line 8: n_max must be an integer"),
            (THREE_ROWED + "allow_zero_right = yes\n", ["search"],
             "line 8: unknown key 'allow_zero_right'"),
            (THREE_ROWED.replace("delta = 3", "delta = 0"), ["certify"], "delta must be >= 1"),
            (THREE_ROWED + "family = {1} = {2}\n", ["certify"], "line 8: bad family '{1} = {2}'"),
            (BARE, ["certify"], "instance declares no families to certify"),
            (BARE, ["spot-check"], "instance declares no families to check"),
            (BARE, ["table"], "instance declares no families to tabulate"),
            (THREE_ROWED, ["spot-check"], "spot-check needs --n-max or an n_max key"),
            (THREE_ROWED, ["search"], "search needs --max-terms or a max_terms key"),
            (None, ["expand"], "expand needs --instance or --target/--prime/--power"),
            (None, ["oracle", "--counter", "multiset", "--n", "3"], "oracle multiset needs --multiset"),
            (None, ["oracle", "--counter", "partitions", "--n", "-1"], "--n must be >= 0"),
            (None, ["oracle", "--counter", "multiset", "--n", "-1", "--multiset", "1"],
             "--n must be >= 0"),
            (None, ["oracle", "--counter", "maxpart", "--n", "-1"], "--n must be >= 0"),
            (None, ["oracle", "--counter", "plane_rowed", "--n", "-1"], "--n must be >= 0"),
            (None, ["oracle", "--counter", "overpartitions", "--n", "-1"], "--n must be >= 0"),
            (None, ["oracle", "--counter", "overplane_rowed", "--n", "-1"], "--n must be >= 0"),
            # a flag the command does not read is refused, not ignored
            (THREE_ROWED, ["expand", "--target", "plane_rowed(3)", "--prime", "5", "--length", "8"],
             "expand --instance does not read --target, --prime;"
             " it reads --length and the instance's target and modulus"),
            (THREE_ROWED, ["expand", "--power", "1"],
             "expand --instance does not read --power;"
             " it reads --length and the instance's target and modulus"),
            (None, ["period", "--multiset", "1,2", "--prime", "2", "--window", "5"],
             "period without --empirical does not read --window;"
             " it reads --multiset, --prime, --power"),
            # the modulus is built before the period is printed
            (None, ["period", "--multiset", "1", "--prime", "2", "--power", "40", "--empirical"],
             "modulus 1099511627776 exceeds the kernel limit 2147483648"),
        ],
        ids=[
            "factor", "empty-raw", "target", "multiset", "raw-base", "tail-exponent", "plane-head",
            "key-value", "duplicate", "integer", "zero-right", "delta", "family",
            "certify-no-family", "spot-check-no-family", "table-no-family", "n-max", "max-terms",
            "expand", "oracle-multiset", "oracle-n-partitions", "oracle-n-multiset",
            "oracle-n-maxpart", "oracle-n-plane-rowed", "oracle-n-overpartitions",
            "oracle-n-overplane-rowed", "expand-target-prime", "expand-power", "period-window",
            "period-empirical-modulus",
        ],
    )
    def test_exits_two_with_message(self, instance, argv, message, capsys, instance_path):
        if instance is not None:
            if "target" not in instance:
                instance = THREE_ROWED.replace("plane_rowed(3)", instance)
            argv = argv[:1] + ["--instance", instance_path(instance)] + argv[1:]
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block of README.md after the first line that
    starts with `heading`."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    after = text[text.index("\n" + heading) :]
    start = after.index(f"```{lang}\n") + len(lang) + 4
    return after[start : after.index("```", start)]


README_COMMANDS = [
    shlex.split(line, comments=True) for line in _readme_block("Subcommands", "sh").splitlines()
]


class TestReadmeExamples:
    """The README's examples run as written."""

    def test_library_example_prints_its_bounds(self, capsys):
        exec(_readme_block("## Library example", "python"), {})
        assert capsys.readouterr().out == "3360 420 89\n"

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[1:]) for a in README_COMMANDS])
    def test_subcommand_exits_zero(self, argv, monkeypatch):
        monkeypatch.chdir(os.path.dirname(README))
        assert argv[0] == "congcert"
        code, _ = run(argv[1:])
        assert code == 0
