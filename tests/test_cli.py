import contextlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from golden_cli import CLI_CALLS, CLI_HASHED_CALLS, GOLDEN, parse_kv, run_cli, run_python
from qccsim import cli
from qccsim.protocol import AngleSet, closed_form_p
from oracles import COS2_PI8, EPR_ANGLES, brute_force_total, horodecki_bound


# --- exact -------------------------------------------------------------------


def test_exact_epr_optimal_angles():
    code, out, _ = run_cli(["exact", "--chi", "-45", "--phi1", "-0.19635", "--phi2", "0.58905"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.853553) < 1e-5
    assert float(report["difference"]) < 1e-12


def test_exact_product_state():
    code, out, _ = run_cli(["exact", "--chi", "0", "--phi1", "0", "--phi2", "0"])
    assert code == 0
    report = parse_kv(out)
    assert float(report["total"]) == 0.75
    assert [float(report[k]) for k in ("p00", "p01", "p10", "p11")] == [1.0, 1.0, 1.0, 0.0]


def test_exact_amplitude_input():
    code, out, _ = run_cli(
        ["exact", "--alpha", "0.9238795325112867", "--beta", "-0.3826834323650898",
         "--phi1", "0.1", "--phi2", "-0.2"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.76328898328267136) < 1e-9


def test_exact_renormalizes_loose_amplitudes():
    # hand-typed 5-digit decimals pass the CLI normalization check
    code, out, _ = run_cli(
        ["exact", "--alpha", "0.92388", "--beta", "-0.38268", "--phi1", "0.1", "--phi2", "-0.2"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.76328898328267136) < 1e-4


RENORMALIZED = "note: renormalized --alpha/--beta: alpha^2+beta^2 = "


def test_renormalized_amplitudes_get_a_note_on_stderr():
    loose = ["exact", "--alpha", "0.92388", "--beta", "-0.38268"]
    code, out, err = run_cli(loose)
    assert code == 0 and out
    assert err == RENORMALIZED + "%.12g\n" % math.hypot(0.92388, -0.38268) ** 2
    # none for exactly normalized amplitudes, a state angle, or any other golden call
    for argv in [["exact", "--alpha", "0.6", "--beta", "-0.8"],
                 ["exact", "--alpha", "0.8", "--beta", "-0.6"], *CLI_CALLS, *CLI_HASHED_CALLS]:
        if argv != loose:
            assert RENORMALIZED not in run_cli(argv)[2], argv
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli_subprocess"]
    assert not any(RENORMALIZED in record["stderr"] for record in pinned.values())


def test_exact_rejects_positive_beta():
    code, _, err = run_cli(["exact", "--alpha", "0.8", "--beta", "0.6"])
    assert code == 2
    assert "error" in err


def test_exact_rejects_conflicting_parameterizations():
    code, _, _ = run_cli(["exact", "--chi", "-10", "--alpha", "0.9", "--beta", "-0.4"])
    assert code == 2
    code, _, _ = run_cli(["exact"])
    assert code == 2
    code, _, _ = run_cli(["exact", "--alpha", "0.8"])
    assert code == 2


def test_exact_rejects_out_of_domain_chi():
    code, _, err = run_cli(["exact", "--chi", "10"])
    assert code == 2
    # the flag is in degrees, so the message names the typed value and range in degrees too
    assert "(10 deg)" in err and "[-45, 0] deg" in err


def test_exact_rejects_unnormalized_amplitudes():
    # alpha^2 + beta^2 = 0.89 is past the tolerance; without the check it would renormalize
    code, out, err = run_cli(["exact", "--alpha", "0.8", "--beta", "-0.5"])
    assert (code, out) == (2, "")
    assert "amplitudes not normalized" in err


def test_exact_rejects_angles_whose_double_overflows():
    # finite, so argparse takes it, but closed_form_p's sin(2 phi1) would raise a domain error
    code, out, err = run_cli(["exact", "--chi", "-30", "--phi1", "1e308"])
    assert (code, out) == (2, "")
    assert "rotation angles must lie within +-8.988465674311579e+307 rad" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan", "abc"])
def test_exact_rejects_non_finite_angles(value):
    for flag in ("--phi1", "--phi2"):
        for given in ([f"{flag}={value}"], [flag, value]):
            code, out, err = run_cli(["exact", "--chi", "-10", "--format", "json", *given])
            assert code == 2
            assert out == ""
            assert f"not a finite number: {value!r}" in err


def test_exact_json():
    code, out, _ = run_cli(["exact", "--chi", "-45", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["tool"] == "qccsim"
    assert payload["meta"]["command"] == "exact"
    # zero angles leave the state untouched: even parity on 3 of 4 inputs
    assert abs(payload["record"]["total"] - 0.75) < 1e-12


# --- optimal -----------------------------------------------------------------


def test_optimal_epr():
    code, out, _ = run_cli(["optimal", "--chi", "-45"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["phi1"]) - EPR_ANGLES[0]) < 1e-9
    assert abs(float(report["phi2"]) - EPR_ANGLES[1]) < 1e-9
    assert abs(float(report["p_max"]) - COS2_PI8) < 1e-9
    assert float(report["discrepancy"]) < 1e-9


def test_optimal_product_state():
    code, out, _ = run_cli(["optimal", "--chi", "0"])
    assert code == 0
    report = parse_kv(out)
    assert float(report["phi1"]) == 0.0 and float(report["phi2"]) == 0.0
    assert float(report["p_max"]) == 0.75


def test_optimal_half_angle():
    code, out, _ = run_cli(["optimal", "--chi", "-22.5"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["p_max"]) - 0.80618621784789724) < 1e-9
    assert float(report["discrepancy"]) < 1e-9


def test_optimal_reads_negative_value_with_exponent():
    # argparse alone takes "-1e-05" for an option name and exits 2
    code, out, _ = run_cli(["optimal", "--chi", "-1e-05"])
    assert code == 0
    assert (code, out) == run_cli(["optimal", "--chi=-1e-05"])[:2]


def test_optimal_rejects_out_of_domain():
    code, _, _ = run_cli(["optimal", "--chi", "5"])
    assert code == 2


def _halved(pair, sol):
    angles = AngleSet(sol.phi1 / 2.0, sol.phi2 / 2.0)
    return sol._replace(phi1=angles.phi1, phi2=angles.phi2, p_max=closed_form_p(pair, angles))


# Wrong solutions that optimal_closed_form might return: each fails a check of cmd_optimal.
_MUTANTS = {
    "phi1-negated": lambda pair, sol: sol._replace(phi1=-sol.phi1),  # Born value 0.13-0.18 low
    "phi2-x1.01": lambda pair, sol: sol._replace(phi2=1.01 * sol.phi2),  # Born value ~3e-5 low
    "p_max+1e-3": lambda pair, sol: sol._replace(p_max=sol.p_max + 1e-3),  # above the bound
    "halved": _halved,  # reports its own Born value, below the bound
}


@pytest.mark.parametrize("chi", ["-30", "-45"])
@pytest.mark.parametrize("mutant", _MUTANTS)
def test_optimal_flags_numeric_regression(monkeypatch, mutant, chi):
    # the full report of the faulty solution comes first; then one error line
    closed_form, wrong = cli.optimal_closed_form, _MUTANTS[mutant]
    monkeypatch.setattr(cli, "optimal_closed_form", lambda pair: wrong(pair, closed_form(pair)))
    pair = cli.make_shared_state(math.radians(float(chi)))
    sol = cli.optimal_closed_form(pair)
    argv = ["optimal", "--chi", chi, "--format"]
    code, text, err = run_cli(argv + ["text"])
    json_code, json_out, json_err = run_cli(argv + ["json"])
    assert code == json_code == 3
    record = json.loads(json_out)["record"]
    assert list(parse_kv(text)) == list(record) == [
        "chi_deg", "alpha", "beta", "phi1", "phi2", "t", "p_max", "numeric_p_max", "discrepancy"]
    assert parse_kv(text) == {key: "%.12g" % value for key, value in record.items()}
    assert (record["alpha"], record["beta"]) == (pair.alpha, pair.beta)
    assert (record["phi1"], record["phi2"], record["t"], record["p_max"]) == tuple(sol)[:4]
    born = brute_force_total(pair.alpha, pair.beta, sol.phi1, sol.phi2)
    assert abs(record["numeric_p_max"] - born) < 1e-12
    discrepancy = abs(record["p_max"] - record["numeric_p_max"])
    assert record["discrepancy"] == discrepancy
    if mutant in ("p_max+1e-3", "halved"):
        bound = horodecki_bound(pair.alpha, pair.beta)
        want = f"error: p_max {sol.p_max:.12g} is not the Horodecki bound {bound:.12g}\n"
    else:
        want = f"error: closed-form/Born-rule discrepancy {discrepancy:.3e} exceeds 1e-06\n"
    assert err == json_err == want


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_file(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 32
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    assert abs(rows[0]["p_max"] - COS2_PI8) < 1e-9
    assert rows[-1]["p_max"] == 0.75
    for row in rows:
        assert row["p_concentration"] <= row["p_max"] + 1e-12
        per_input_mean = (row["p00"] + row["p01"] + row["p10"] + row["p11"]) / 4.0
        assert abs(row["p_max"] - per_input_mean) < 1e-9
        assert abs(row["epsilon"] - abs(math.tan(math.radians(row["chi_deg"])))) < 1e-9
    assert abs(rows[0]["p_concentration"] - rows[0]["p_max"]) < 1e-12


def test_sweep_csv_stdout():
    code, out, _ = run_cli(["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2"])
    assert code == 0
    assert out.startswith(cli.CSV_HEADER + "\n")
    assert out.endswith("\n")


def test_sweep_json_mirrors_csv_fields():
    code, out, _ = run_cli(
        ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "sweep"
    assert len(payload["records"]) == 5
    assert set(payload["records"][0]) == set(cli.CSV_HEADER.split(","))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_out_file_matches_stdout(fmt, tmp_path):
    argv = ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31", "--format", fmt]
    code, out, _ = run_cli(argv)
    assert code == 0
    out_file = tmp_path / f"sweep.{fmt}"
    assert run_cli([*argv, "--out", str(out_file)]) == (0, "", "")
    if fmt == "json":  # the only difference: meta's flags name the --out path
        out = out.replace('"format": "json"\n',
                          f'"format": "json",\n      "out": {json.dumps(str(out_file))}\n', 1)
    assert out_file.read_bytes() == out.encode("utf-8")


def test_sweep_rejects_bad_flags():
    code, out, _ = run_cli(["sweep", "--chi-start", "-50", "--chi-end", "0", "--steps", "5"])
    assert (code, out) == (2, "")
    code, out, _ = run_cli(["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "1"])
    assert (code, out) == (2, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_refuses_whole_grid_when_last_point_is_out_of_domain(fmt):
    argv = ["sweep", "--chi-start", "-45", "--chi-end", "1", "--steps", "5", "--format", fmt]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert "(1 deg)" in err


def test_refused_sweep_creates_no_file(tmp_path):
    out_file = tmp_path / "sweep.json"
    argv = ["sweep", "--chi-start", "-45", "--chi-end", "1", "--steps", "5", "--format", "json",
            "--out", str(out_file)]
    assert run_cli(argv)[:2] == (2, "")
    assert not out_file.exists()


@pytest.mark.parametrize("start,stop,steps", [
    (math.radians(-45.0), 0.0, 2),
    (math.radians(-10.0), math.radians(-10.0), 7),  # start == stop: the zero-step branch
    (0.0, 1e-320, 5000),  # a step that underflows to 0 with delta != 0
    (0.0, math.radians(-45.0), 100),  # reversed range
    (math.radians(-45.0), 0.0, 2001),  # the golden sweeps' grid
    (math.radians(-44.123), math.radians(-3.7), 1237),
])
def test_sweep_grid_equals_numpy_linspace(start, stop, steps):
    grid = cli._linspace(start, stop, steps)
    assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(start, stop, steps).tolist()]


def test_sweep_json_is_written_record_by_record():
    # the whole document as one string (and json's chunk list) peaked at 6.6 MiB
    argv = ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2001", "--format", "json"]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(argv) == 0  # first call fills module-level caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


# --- simulate ----------------------------------------------------------------


def test_simulate_epr():
    code, out, _ = run_cli(["simulate", "--chi", "-45", "--trials", "20000", "--seed", "42"])
    assert code == 0
    report = parse_kv(out)
    estimate, std_error = float(report["estimate"]), float(report["std_error"])
    assert abs(estimate - COS2_PI8) < 5.0 * std_error
    assert abs(float(report["z_score"])) < 5.0


def test_simulate_product_state_tallies():
    code, out, _ = run_cli(["simulate", "--chi", "0", "--trials", "100", "--seed", "1"])
    assert code == 0
    report = parse_kv(out)
    successes, drawn = report["per_input 11"].split("/")
    assert successes == "0"
    assert int(drawn) > 0


def test_simulate_output_is_deterministic():
    argv = ["simulate", "--chi", "-30", "--trials", "5000", "--seed", "9"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_simulate_rejects_zero_trials():
    code, _, _ = run_cli(["simulate", "--chi", "0", "--trials", "0"])
    assert code == 2


def test_simulate_rejects_negative_seed():
    argv = ["simulate", "--chi", "-30", "--trials", "10", "--seed", "-1"]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0\n"


def test_simulate_json():
    code, out, _ = run_cli(
        ["simulate", "--chi", "-15", "--trials", "1000", "--seed", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 3
    counts = payload["record"]["per_input_counts"]
    assert set(counts) == {"00", "01", "10", "11"}
    assert sum(n for _, n in counts.values()) == 1000


def test_simulate_json_is_strict_for_unbounded_z():
    # one trial scores 0 or 1 with zero std_error, never the exact 3/4
    code, out, _ = run_cli(["simulate", "--chi", "0", "--trials", "1", "--format", "json"])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = json.loads(out, parse_constant=reject)["record"]
    assert record["std_error"] == 0.0
    assert record["z_score"] is None


# --- oversized requests ------------------------------------------------------


def test_oversized_request_exits_1():
    # 7 PiB of list slots: beyond the 47-bit address space, so the grid's
    # allocation fails at once, before any point is computed.  10^23 slots
    # are beyond sys.maxsize, which no list can index.
    # (simulate streams its trials in chunks, so no --trials fails on memory.)
    for steps in ("1000000000000000", "100000000000000000000000"):
        argv = ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", steps]
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# --- classical ---------------------------------------------------------------


def test_classical_simultaneous():
    code, out, _ = run_cli(["classical", "--mode", "simultaneous"])
    assert code == 0
    report = parse_kv(out)
    assert report["best_success_count"] == "12/16"
    assert report["best_probability"] == "3/4"
    assert int(report["protocols_examined"]) == 16 * 16 * 256 * 256


def test_classical_sequential_json():
    code, out, _ = run_cli(["classical", "--mode", "sequential", "--format", "json"])
    assert code == 0
    record = json.loads(out)["record"]
    assert record["best_success_count"] == 12
    assert record["best_probability"] == "3/4"
    assert record["best_probability_float"] == 0.75
    assert len(record["witness"]["msg_bob"]) == 8


def test_classical_rejects_bad_mode():
    code, _, _ = run_cli(["classical", "--mode", "sideways"])
    assert code == 2


# --- process-level determinism -------------------------------------------------


def test_module_invocation_is_byte_identical():
    argv = ["-m", "qccsim", "simulate", "--chi", "-45", "--trials", "5000", "--seed", "7"]
    first, second = run_python(*argv), run_python(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # sanity: produced output
