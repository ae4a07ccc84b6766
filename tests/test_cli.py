import contextlib
import gc
import json
import math
import os
import platform
import re
import sys
import tracemalloc

import numpy as np
import pytest

from golden_cli import (CLI_CALLS, CLI_HASHED_CALLS, GOLDEN, parse_kv, python_env, run_cli,
                        run_python)
from qccsim import cli
from qccsim.protocol import AngleSet, closed_form_p
from oracles import four_angle_win, horodecki_bound


# --- exact -------------------------------------------------------------------


def test_exact_amplitude_input():
    code, out, _ = run_cli(
        ["exact", "--alpha", "0.9238795325112867", "--beta", "-0.3826834323650898",
         "--phi1", "0.1", "--phi2", "-0.2"])
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.76328898328267136) < 1e-9


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
    # the fresh-interpreter record of the same call has the same note, and no other has one
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli_subprocess"]
    assert pinned.pop(" ".join(loose))["stderr"] == err
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


# --- optimal -----------------------------------------------------------------


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
    born = four_angle_win(pair.alpha, pair.beta, sol.phi1, sol.phi2, sol.phi1, sol.phi2)
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


def test_sweep_refuses_out_of_domain_end_before_the_grid(monkeypatch):
    # 10000 points from -30 to 10 deg: the first refused one is an interior point near 0
    def unreachable(*args):
        raise AssertionError("the sweep grid was built")

    monkeypatch.setattr(cli, "_linspace", unreachable)
    monkeypatch.setattr(cli, "sweep_records", unreachable)
    code, out, err = run_cli(["sweep", "--chi-start", "-30", "--chi-end", "10", "--steps", "10000"])
    assert (code, out) == (2, "")
    assert "(10 deg)" in err


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


def test_simulate_rejects_zero_trials():
    code, _, _ = run_cli(["simulate", "--chi", "0", "--trials", "0"])
    assert code == 2


def test_simulate_rejects_negative_seed():
    argv = ["simulate", "--chi", "-30", "--trials", "10", "--seed", "-1"]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0\n"


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


def test_classical_rejects_bad_mode():
    code, _, _ = run_cli(["classical", "--mode", "sideways"])
    assert code == 2


# --- stdout that cannot take the report ----------------------------------------


# Exact --chi -30 in a fresh interpreter whose stdout cannot take the report.
# With PYTHONUNBUFFERED set, the write itself fails; without it, only the flush.
EXACT = ["-m", "qccsim", "exact", "--chi", "-30"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_error_line():
    # a report, and the help that argparse prints before main's own handling
    for argv in (EXACT, ["-m", "qccsim", "--help"], ["-m", "qccsim", "exact", "--help"]):
        with open("/dev/full", "w") as full:
            proc = run_python(*argv, stdout=full, unset=["PYTHONUNBUFFERED"])
        assert proc.returncode == 1, argv
        assert proc.stderr == "error: [Errno 28] No space left on device\n", argv


def test_closed_stdout_exits_1_without_a_traceback():
    # as sh -c 'exec >&-; python -m qccsim ...': fd 1 is closed when the interpreter starts
    start = f"import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *{EXACT!r}])"
    proc = run_python("-c", start, unset=["PYTHONUNBUFFERED"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: stdout is closed\n"


def test_simulate_without_numpy_exits_1_with_one_error_line():
    # every other command runs without numpy; simulate needs it to sample
    start = ("import sys; sys.modules['numpy'] = None; import qccsim._entry; "
             "sys.argv = ['qccsim', 'simulate', '--chi', '-30', '--trials', '10']; "
             "qccsim._entry.run()")
    proc = run_python("-c", start)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: simulate needs numpy \(.*numpy.*\)\n", proc.stderr)


# --- the cyclic collector --------------------------------------------------------

_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["qccsim", "exact", "--chi", "-30"]
import qccsim._entry
qccsim._entry.run()
"""


def test_process_entry_runs_without_the_collector_and_freezes_before_exit():
    proc = run_python("-c", _PROBE)
    assert (proc.returncode, proc.stderr) == (0, "False True\n")
    assert proc.stdout == run_cli(["exact", "--chi", "-30"])[1]


_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or "openblas" not in _BLAS,
                    reason="needs /proc and numpy on OpenBLAS")
def test_simulate_process_keeps_one_thread_unless_the_caller_sets_openblas_threads():
    # OpenBLAS would start a worker per core; a caller's own setting still wins
    probe = """
import atexit, os, sys
if {preset!r}:
    os.environ["OPENBLAS_NUM_THREADS"] = {preset!r}
status = open("/proc/self/status").read
atexit.register(lambda: print(status().split("Threads:")[1].split()[0], file=sys.stderr))
sys.argv = ["qccsim", "simulate", "--chi", "-30", "--trials", "1000"]
import qccsim._entry
qccsim._entry.run()
"""
    for preset, threads in ((None, "1"), ("2", "2")):
        proc = run_python("-c", probe.format(preset=preset), unset=["OPENBLAS_NUM_THREADS"])
        assert (proc.returncode, proc.stderr) == (0, threads + "\n"), preset


def test_main_leaves_the_collector_on():
    assert gc.isenabled()
    assert run_cli(["exact", "--chi", "-30"])[0] == 0
    assert gc.isenabled()


def _simulate_usage(trials: int) -> tuple[int, int]:
    """Peak RSS (KiB on Linux) and minor page faults of one ``simulate`` process."""
    argv = [sys.executable, "-m", "qccsim", "simulate", "--chi", "-30", "--trials", str(trials)]
    pid = os.posix_spawn(sys.executable, argv, python_env(),
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss, usage.ru_minflt


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_simulate_process_memory_does_not_grow_with_trials():
    # The whole CLI process, collector off: 100 times the trials, the same peak and about the
    # same minor faults.  Freeing a chunk's arrays in another order can keep the peak but make
    # malloc map fresh pages every chunk: binding `row` to a chunk's raw words, which frees the
    # old rows before the new ones are built, took 63.6k faults against 5.6k at 1e7 trials on
    # a 2-core VM, and a 4e6-trial call ran about 16% slower.
    (small, small_faults), (large, large_faults) = _simulate_usage(10**5), _simulate_usage(10**7)
    assert large - small <= 2 * 1024, f"peak RSS {small} KiB at 1e5 trials, {large} KiB at 1e7"
    # The fault bound assumes glibc malloc's dynamic mmap threshold: a chunk's arrays are 128 KiB,
    # glibc's default threshold, and come from the heap only once the first freed one has raised
    # it.  Tuning variables, a preloaded allocator or another libc can map every chunk afresh.
    tuned = [name for name in python_env()
             if name.startswith("MALLOC_") or name in ("GLIBC_TUNABLES", "LD_PRELOAD")]
    if platform.libc_ver()[0] == "glibc" and not tuned:
        assert large_faults - small_faults <= 1000, (
            f"{small_faults} minor faults at 1e5 trials, {large_faults} at 1e7")
