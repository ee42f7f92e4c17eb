"""Command-line interface: exit codes, schemas, determinism."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from wittcoh.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_prime_7(capsys):
    code, out = run(capsys, "verify", "--prime", "7")
    assert code == 0
    report = json.loads(out)
    assert report["dims"]["H2_res"] == 8
    assert report["all_pass"] is True
    jsonschema.validate(report, SCHEMA)


def test_verify_prime_3_skips_p_dependent_checks(capsys):
    code, out = run(capsys, "verify", "--prime", "3")
    assert code == 0
    report = json.loads(out)
    assert report["dims"]["H2_res"] == 3
    skipped = [c["name"] for c in report["checks"] if c["skipped"]]
    assert "ordinary.explicit_cocycles" in skipped
    jsonschema.validate(report, SCHEMA)


def test_verify_rejects_composite(capsys):
    code, _ = run(capsys, "verify", "--prime", "9")
    assert code == 2
    code, _ = run(capsys, "verify", "--prime", "2")
    assert code == 2
    code, _ = run(capsys, "verify", "--primes", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "var, argv",
    [
        ("WITTCOH_SEED", ["verify", "--prime", "5"]),
        ("WITTCOH_JOBS", ["verify", "--prime", "5"]),
        ("WITTCOH_PRIME", ["verify"]),
        ("WITTCOH_PRIME", ["extension"]),
    ],
)
def test_malformed_integer_env_value(capsys, monkeypatch, var, argv):
    monkeypatch.setenv(var, "abc")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'abc'" in err


def test_verify_deterministic_across_jobs(capsys):
    code1, out1 = run(capsys, "verify", "--primes", "5..7", "--jobs", "1")
    code2, out2 = run(capsys, "verify", "--primes", "5..7", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = [json.loads(line) for line in out1.splitlines()]
    assert [r["prime"] for r in reports] == [5, 7]
    for r in reports:
        jsonschema.validate(r, SCHEMA)


def test_verify_env_var_fallback(capsys, monkeypatch):
    monkeypatch.setenv("WITTCOH_PRIME", "5")
    code, out = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)["prime"] == 5


def test_cocycles_phi10(capsys):
    code, out = run(capsys, "cocycles", "--prime", "5", "--which", "phi10")
    assert code == 0
    assert json.loads(out)["phi"] == {"(-1,1)": 1}

    code, out = run(capsys, "cocycles", "--prime", "7", "--which", "phi10")
    assert code == 0
    assert json.loads(out)["phi"] == {"(-1,1)": 1, "(3,4)": 5}


def test_cocycles_omega(capsys):
    code, out = run(capsys, "cocycles", "--prime", "5", "--which", "omega", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == {"-1": 0, "0": 1, "1": 0, "2": 0, "3": 0}


def test_cocycles_all(capsys):
    code, out = run(capsys, "cocycles", "--prime", "5", "--which", "all")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["omega"]) == {"-1", "0", "1", "2", "3"}
    assert payload["phi10"] == {"(-1,1)": 1}


def test_cocycles_bad_selectors(capsys):
    assert run(capsys, "cocycles", "--prime", "5", "--which", "omega", "7")[0] == 2
    assert run(capsys, "cocycles", "--prime", "5", "--which", "omega", "x")[0] == 2
    assert run(capsys, "cocycles", "--prime", "3", "--which", "phi10")[0] == 2
    assert run(capsys, "cocycles", "--prime", "5", "--which", "nope")[0] == 2


def test_extension_virasoro_contains_expected_triples(capsys):
    code, out = run(capsys, "extension", "--prime", "5", "--which", "virasoro")
    assert code == 0
    payload = json.loads(out)
    assert ["e1", "e-1", "e0", 3] in payload["brackets"]
    assert ["e1", "e-1", "c", 4] in payload["brackets"]
    assert payload["verification"]["pass"] is True


def test_extension_omega_pmap_rows(capsys):
    code, out = run(capsys, "extension", "--prime", "5", "--which", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pmap"]["e0"] == {"e0": 1}
    assert payload["pmap"]["e2"] == {"c": 1}
    assert payload["pmap"]["e1"] == {}
    assert payload["pmap"]["c"] == {}


def test_extension_bad_selectors(capsys):
    assert run(capsys, "extension", "--prime", "4", "--which", "0")[0] == 2
    assert run(capsys, "extension", "--prime", "5", "--which", "9")[0] == 2
    assert run(capsys, "extension", "--prime", "5", "--which", "bogus")[0] == 2
    assert run(capsys, "extension", "--prime", "3", "--which", "virasoro")[0] == 2


def test_extension_csv_format(capsys):
    code, out = run(capsys, "extension", "--prime", "5", "--which", "virasoro", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "left,right,component,coefficient"
    assert "e1,e-1,e0,3" in lines
    assert "e1,e-1,c,4" in lines


def test_extension_output_file(tmp_path, capsys):
    target = tmp_path / "ext.json"
    code, out = run(capsys, "extension", "--prime", "5", "--which", "-1", "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["pmap"]["e-1"] == {"c": 1}
    assert payload["pmap"]["e0"] == {"e0": 1}


def test_extension_deterministic(capsys):
    _, out1 = run(capsys, "extension", "--prime", "7", "--which", "virasoro")
    _, out2 = run(capsys, "extension", "--prime", "7", "--which", "virasoro")
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "var, value, argv, prime",
    [
        ("WITTCOH_PRIMES", "5..7", ["verify", "--prime", "3"], 3),
        ("WITTCOH_PRIME", "5", ["verify", "--primes", "3..3"], 3),
    ],
)
def test_command_line_prime_overrides_other_env_flag(capsys, monkeypatch, var, value, argv, prime):
    monkeypatch.setenv(var, value)
    code, out = run(capsys, *argv)
    assert code == 0
    assert [json.loads(line)["prime"] for line in out.splitlines()] == [prime]


def test_prime_and_primes_on_command_line_conflict(capsys, monkeypatch):
    monkeypatch.setenv("WITTCOH_PRIME", "5")
    assert main(["verify", "--prime", "3", "--primes", "3..3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_extension_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "ext.json"
    assert main(["extension", "--prime", "5", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert not target.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    assert main(["verify", "--prime", "3", "--jobs", jobs]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_pool_capped_by_primes_and_cpus(capsys, monkeypatch):
    from wittcoh import cli

    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [{"prime": p, "all_pass": True} for p, _ in jobs]

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = run(capsys, "verify", "--primes", "3..13", "--jobs", "64")
    assert code == 0
    assert sizes == [2]
    assert [json.loads(line)["prime"] for line in out.splitlines()] == [3, 5, 7, 11, 13]


def test_verify_refuses_prime_whose_dense_d2_is_too_large(capsys, monkeypatch):
    # The dense d2 at p = 107 would take about 1.13 GiB at one byte per
    # entry; the refusal comes before anything is assembled or verified.
    from wittcoh import cli, restricted, verify

    def never(*args):
        raise AssertionError("started the work")

    monkeypatch.setattr(restricted, "CochainComplex", never)
    monkeypatch.setattr(restricted, "delta2_res_matrix", never)
    monkeypatch.setattr(cli, "_run_prime_args", never)
    assert main(["verify", "--prime", "107"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 107 is too large: its dense d2 matrix would need 1.13 GiB, over the 1 GiB limit\n"
    assert main(["verify", "--primes", "61..107"]) == 2
    with pytest.raises(ValueError, match="^107 is too large"):
        verify.run_prime(107)


def test_verify_refuses_a_wide_range_at_its_first_refused_prime(capsys, monkeypatch):
    # The size rule comes first for every integer of the range, so primality
    # is tested only up to 104: 105 is the first integer the rule refuses.
    from wittcoh import cli

    calls = []
    is_prime = cli.is_prime

    def counting_is_prime(n):
        calls.append(n)
        if len(calls) > 1000:
            raise AssertionError("enumerated the whole range")
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting_is_prime)
    assert main(["verify", "--primes", "3..107"]) == 2
    expected = capsys.readouterr().err
    assert expected == "error: 105 is too large: its dense d2 matrix would need 1.03 GiB, over the 1 GiB limit\n"
    calls.clear()
    assert main(["verify", "--primes", "3..10000000000"]) == 2
    assert capsys.readouterr().err == expected
    assert max(calls) == 104


def test_extension_refuses_prime_whose_dense_d2_is_too_large(capsys, monkeypatch):
    # The extension command follows verify's size rule: p = 107 is refused
    # before its (p + 1)^4 Jacobi tensor or anything else is built.
    from wittcoh import cli, extensions

    def never(*args, **kwargs):
        raise AssertionError("started the work")

    monkeypatch.setattr(cli, "build_extension", never)
    monkeypatch.setattr(extensions, "build_extension", never)
    monkeypatch.setattr(extensions, "_jacobi_scan", never)
    assert main(["extension", "--prime", "107"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 107 is too large: its dense d2 matrix would need 1.13 GiB, over the 1 GiB limit\n"
    assert main(["extension", "--prime", "107", "--which", "0", "--format", "csv"]) == 2


def test_size_rule_refuses_a_large_prime_before_testing_primality(capsys, monkeypatch):
    # 10^18 + 3 is prime but far above the cap, 10^70 + 1 is past the bound
    # of is_prime and needs a size beyond float range in its message.  Every
    # subcommand, and run_prime, applies the one size rule first.
    from wittcoh import cli, verify

    def never(n):
        raise AssertionError("tested primality")

    monkeypatch.setattr(cli, "is_prime", never)
    monkeypatch.setattr(verify, "is_prime", never)
    for n in (10**18 + 3, 10**70 + 1):
        for command in ("verify", "extension", "cocycles"):
            assert main([command, "--prime", str(n)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {n} is too large: its dense d2 matrix would need ")
            assert err.endswith(" GiB, over the 1 GiB limit\n")
        with pytest.raises(ValueError, match=f"^{n} is too large: its dense d2 matrix would need "):
            verify.run_prime(n)


def test_size_rule_refuses_a_range_before_testing_primality(capsys, monkeypatch):
    # A range of huge integers ends at its first integer, which the size rule
    # refuses before any primality test.  A range above 104 with no prime in
    # it gets the size message too.
    from wittcoh import cli

    def never(n):
        raise AssertionError("tested primality")

    monkeypatch.setattr(cli, "is_prime", never)
    n = 10**18 + 3
    assert main(["verify", "--primes", f"{n}..{n}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {n} is too large: its dense d2 matrix would need ")
    assert main(["verify", "--primes", "106..106"]) == 2
    assert capsys.readouterr().err == "error: 106 is too large: its dense d2 matrix would need 1.08 GiB, over the 1 GiB limit\n"


def test_size_message_names_no_composite_prime_and_rounds_up(capsys):
    # 105 is composite and its dense d2 needs 1.029 GiB at one byte per
    # entry: the message neither calls it p nor rounds the size down to the
    # limit.  104 is under the limit, at 0.99 GiB, so it gets the primality
    # message.
    from wittcoh.restricted import check_dense_d2_size

    assert main(["verify", "--prime", "105"]) == 2
    assert capsys.readouterr().err == "error: 105 is too large: its dense d2 matrix would need 1.03 GiB, over the 1 GiB limit\n"
    assert main(["verify", "--prime", "104"]) == 2
    assert capsys.readouterr().err == "error: 104 is not prime (need an odd prime >= 3)\n"
    check_dense_d2_size(104)
    for n in range(105, 200):
        with pytest.raises(ValueError) as refused:
            check_dense_d2_size(n)
        size = float(str(refused.value).split("would need ")[1].split(" GiB")[0])
        assert size > 1

