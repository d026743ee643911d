import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import mrlrc
from mrlrc import cli
from mrlrc.cli import main
from mrlrc.minors import MinorWitness


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors, as the shell would see them
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_axioms_command(capsys):
    code, out, _ = run(capsys, "axioms", "8,4,3")
    assert code == 0
    assert "R1: pass" in out and "R2: pass" in out and "R3: pass" in out


def test_flats_command(capsys):
    code, out, _ = run(capsys, "flats", "6,3,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(empty)"
    assert "0,1,2" in lines  # the first repair set
    assert "0,1,2,3,4,5" in lines  # the ground set


def test_witness_construct_and_verify(capsys):
    code, out, _ = run(capsys, "witness", "8,4,3", "--eq", "1")
    assert code == 0
    line = out.strip()
    assert "verified=true" in line
    code, out, _ = run(capsys, "witness", "8,4,3", "--verify", line)
    assert code == 0
    assert out.strip() == "verified=true"


def test_witness_verify_rejects_tampered_line(capsys):
    w = MinorWitness(0, 0b10001, 4, 7)  # claims one deletion too few
    code, out, _ = run(capsys, "witness", "8,4,3", "--verify", w.to_line())
    assert code == 1
    assert "verified=false" in out


def test_witness_eq3_boundary_flag(capsys):
    code, out, _ = run(capsys, "witness", "8,4,3", "--eq", "3", "--kprime", "2")
    assert code == 0
    assert "boundary=true" in out
    assert "n'=6" in out


def test_witness_lines_pinned_in_ci(capsys):
    # eq2 with k % r != 0 deletes one leftover of the partial block; eq4 with whole
    # blocks inside F leaves X in blocks 2-4 only
    for argv, line in (
        (("8,4,3", "--eq", "2"), "F=0; X=1; k'=3; n'=6; verified=true; boundary=false"),
        (
            ("15,10,2", "--eq", "4", "--kprime", "3"),
            "F=0,1,2,3,4,5,6,9,12; X=7,10,13; k'=3; n'=3; verified=true; boundary=false",
        ),
    ):
        assert run(capsys, "witness", *argv) == (0, line + "\n", ""), argv


def test_witness_usage_errors(capsys):
    code, _, err = run(capsys, "witness", "8,4,3")
    assert code == 2
    assert "one of the arguments --eq --verify is required" in err
    code, _, err = run(capsys, "witness", "8,4,3", "--eq", "3")
    assert code == 2
    assert "--eq 3 requires --kprime" in err
    code, _, err = run(capsys, "witness", "8,4,3", "--eq", "4")
    assert code == 2
    assert "--eq 4 requires --kprime" in err
    # --eq 1 with --verify used to verify silently, and a stray --kprime was ignored
    line = "F=; X=0,4; k'=4; n'=6; verified=true; boundary=false"
    code, out, err = run(capsys, "witness", "8,4,3", "--eq", "1", "--verify", line)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    for argv in (("--eq", "1"), ("--eq", "2"), ("--verify", line)):
        code, out, err = run(capsys, "witness", "8,4,3", *argv, "--kprime", "2")
        assert (code, out) == (2, ""), argv
        assert "--kprime goes with --eq 3 or --eq 4 only" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "8,4,3")
    assert code == 0
    assert "k'=2 max_n'=6" in out
    assert "k'=4 max_n'=6" in out
    code, out, _ = run(capsys, "oracle", "8,4,3", "--kprime", "3")
    assert code == 0
    assert "k'=3 max_n'=6" in out
    assert "verified=true" in out


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "12,7,3")
    assert code == 0
    assert "eq1=9" in out
    assert "q_unconditional=4" in out
    assert "rate=7/12" in out


def test_bounds_accepts_large_n(capsys):
    # formula work has no 64-element cap
    code, out, _ = run(capsys, "bounds", "204,7,3")
    assert code == 0
    assert "n=204" in out


def test_sweep_command(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "7", "3", "8", "60", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[1].startswith("n,g,h,eq1,")
    assert any(ln.startswith("12,3,2,9,6,") for ln in lines)
    assert any(ln.startswith("40,10,23,30,34,") for ln in lines)


def test_sweep_rejects_locality_below_one(capsys):
    # n % (r + 1) used to divide by zero at r = -1 and exit 1 with a traceback
    code, out, err = run(capsys, "sweep", "3", "-1", "1", "10")
    assert code == 3
    assert "locality must be at least 1" in err
    assert out == ""


def test_sweep_refuses_large_n_max(capsys):
    code, out, err = run(capsys, "sweep", "7", "3", "8", "200000")
    assert code == 4
    assert "size refusal" in err and "n_max" in err
    assert out == ""


def test_sweep_without_rows_is_a_parameter_error(capsys):
    # k <= r and an inverted range used to exit 1, the "answered false" code
    for argv in (("2", "3", "8", "60"), ("7", "3", "60", "8")):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 3
        assert "invalid parameters" in err
        assert out == ""


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, "bounds", "10,4,2")
    assert code == 3
    assert "invalid parameters" in err


def test_bad_triples_partitions_and_indices_exit_3(capsys):
    cases = {
        ("bounds", "0,1,1"): "code length must be positive, got n=0",
        ("bounds", "4,2,0"): "locality must be at least 1, got r=0",
        # element 7 is in no repair set, and 9 is past n = 8
        ("witness", "8,4,3:0,1,2,3;4,5,6,9", "--eq", "1"): "repair sets do not cover the ground set",
        ("witness", "8,4,3", "--verify", "F=64; X=; k'=2; n'=6"): "index 64 in '64' is past the ground limit",
    }
    for argv, message in cases.items():
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert message in err, argv


def test_malformed_params_exit_code(capsys):
    code, _, _ = run(capsys, "bounds", "10,4")
    assert code == 2


def test_size_refusal_exit_code(capsys):
    code, _, err = run(capsys, "axioms", "24,12,3")
    assert code == 4
    assert "size refusal" in err


def test_crash_exit_code(capsys, monkeypatch):
    # an unexpected exception is a crash, exit 70 with its traceback, not exit 1 ("false")
    def crash(m):
        raise RuntimeError("witness failed verification")

    monkeypatch.setattr(cli, "witness_eq1", crash)
    code, out, err = run(capsys, "witness", "8,4,3", "--eq", "1")
    assert (code, out) == (70, "")
    assert "Traceback" in err and "RuntimeError: witness failed verification" in err


def test_witness_refuses_unbounded_verification(capsys):
    # the eq1 minor of (48,24,3) has C(36,24) k-subsets, past is_uniform's budget; the
    # MR closed form ranks none of them (is_uniform's refusal: test_matroid)
    code, out, err = run(capsys, "witness", "48,24,3", "--eq", "1")
    assert code == 0
    assert out == "F=; X=0,4,8,12,16,20,24,28,32,36,40,44; k'=24; n'=36; verified=true; boundary=false\n"
    assert err == ""


def test_oracle_refusal_states_its_work(capsys):
    code, out, err = run(capsys, "oracle", "16,9,3")
    assert code == 4
    assert "oracle search scans the flats among 2^16 subsets; limit is ground size 15" in err
    assert out == ""
    # the eq3 construction gap falls back to the oracle, which refuses above 15 elements
    code, out, err = run(capsys, "witness", "16,9,7", "--eq", "3", "--kprime", "6")
    assert code == 4
    assert "2^16 subsets" in err
    assert out == ""


def test_code_search_check_pipeline(capsys, tmp_path):
    mat = tmp_path / "code.txt"
    code, _, _ = run(
        capsys, "code", "search", "8,4,3",
        "--field", "13", "--seed", "7", "--trials", "200", "--out", str(mat),
    )
    assert code == 0
    code, out, _ = run(capsys, "code", "check", str(mat), "--mr", "8,4,3")
    assert code == 0
    assert "MR: true" in out
    # an MR-LRC proper is not MDS (the local parities break it)
    code, out, _ = run(capsys, "code", "check", str(mat))
    assert code == 5
    assert "MDS: false" in out


def test_code_search_validation_exit_codes(capsys):
    code, out, err = run(capsys, "code", "search", "30,15,4", "--field", "13", "--seed", "1")
    assert code == 4
    assert "51329100 9x9 difference matrices per trial" in err
    assert out == ""
    # a negative trial budget used to print "no MR code found in -1 trials" and exit 5
    code, out, err = run(capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "1", "--trials", "-1")
    assert code == 3
    assert "at least one trial" in err
    assert out == ""


def test_code_search_bounds_the_whole_command(capsys, tmp_path):
    # 100,000 trials of 14,247,090 steps each: refused before the first trial
    code, out, err = run(
        capsys, "code", "search", "45,37,8", "--field", "65521", "--seed", "22", "--trials", "100000"
    )
    assert code == 4
    assert "per trial: 14247090 steps" in err and "over 100000 trials" in err
    assert out == ""
    # without --trials the budget is the largest the limit admits: 95,325 for (8,4,3)
    mat = tmp_path / "c.txt"
    code, _, _ = run(capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "7", "--out", str(mat))
    assert code == 0
    code, out, _ = run(capsys, "code", "check", str(mat), "--mr", "8,4,3")
    assert code == 0 and out == "MR: true\n"


def test_code_search_that_finds_nothing_exits_5(capsys, tmp_path):
    mat = tmp_path / "none.txt"
    code, out, err = run(
        capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "1", "--trials", "1", "--out", str(mat)
    )
    assert (code, out) == (5, "")
    assert "no MR code found in 1 trials" in err
    assert not mat.exists()


def test_matrix_past_64_columns_is_a_parameter_error(capsys, tmp_path):
    mat = tmp_path / "wide.txt"
    mat.write_text("field 2\n1 65\n" + " ".join(["1"] * 65) + "\n")
    # a 30x65 matrix is past both refusals' work limits too: the column limit comes first
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("field 13\n30 65\n" + "\n".join([" ".join(["0"] * 65)] * 30) + "\n")
    runs = [("check", str(mat)), ("shorten", str(mat), "--cols", "0")]
    runs += [("check", str(zeros)), ("check", str(zeros), "--mr", "65,30,4")]
    for argv in runs:
        code, out, err = run(capsys, "code", *argv)
        assert code == 3, argv
        assert "ground size must be in [0, 64], got 65" in err
        assert out == ""


def test_code_shorten_puncture_pipeline(capsys, tmp_path):
    mat = tmp_path / "code.txt"
    run(capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "7",
        "--trials", "200", "--out", str(mat))
    shortened = tmp_path / "s.txt"
    code, _, _ = run(capsys, "code", "shorten", str(mat), "--cols", "0", "--out", str(shortened))
    assert code == 0
    punctured = tmp_path / "p.txt"
    # after shortening at 0, old column 4 sits at index 3; delete one per block
    code, _, _ = run(capsys, "code", "puncture", str(shortened), "--cols", "0,3", "--out", str(punctured))
    assert code == 0
    code, out, _ = run(capsys, "code", "check", str(punctured))
    assert code == 0
    assert "MDS: true" in out


def test_code_shorten_and_puncture_text_pinned(capsys, tmp_path):
    # the seed-7 (8,4,3) code over GF(13), shortened at column 0, then punctured at 0,3
    mat, shortened = tmp_path / "code.txt", tmp_path / "s.txt"
    run(capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "7", "--trials", "200", "--out", str(mat))
    code, out, _ = run(capsys, "code", "shorten", str(mat), "--cols", "0")
    assert code == 0
    assert out == "field 13\n3 7\n5 5 3 12 1 0 0\n12 8 6 12 0 1 0\n3 11 12 12 0 0 1\n"
    shortened.write_text(out)
    code, out, _ = run(capsys, "code", "puncture", str(shortened), "--cols", "0,3")
    assert code == 0
    assert out == "field 13\n3 5\n5 3 1 0 0\n8 6 0 1 0\n11 12 0 0 1\n"


def test_code_puncture_at_every_column_is_checked(capsys, tmp_path):
    # the [0,4] minor's four empty rows are blank lines; check used to read none of them (exit 2)
    mat, punctured = tmp_path / "code.txt", tmp_path / "p.txt"
    run(capsys, "code", "search", "8,4,3", "--field", "13", "--seed", "7", "--trials", "200", "--out", str(mat))
    code, _, _ = run(capsys, "code", "puncture", str(mat), "--cols", "0,1,2,3,4,5,6,7", "--out", str(punctured))
    assert code == 0
    assert punctured.read_text() == "field 13\n4 0\n\n\n\n\n"
    code, out, _ = run(capsys, "code", "check", str(punctured))
    assert (code, out) == (5, "MDS: false\n")


def test_code_search_over_any_extension_field(capsys, tmp_path):
    # GF(2^5) takes its least irreducible modulus, x^5 + x^2 + 1 = 37
    mat = tmp_path / "f5.txt"
    code, _, _ = run(
        capsys, "code", "search", "8,4,3", "--field", "2^5", "--seed", "1", "--trials", "50", "--out", str(mat)
    )
    assert code == 0
    assert mat.read_text().splitlines()[0] == "field 2^5 modulus=37"
    code, out, _ = run(capsys, "code", "check", str(mat), "--mr", "8,4,3")
    assert (code, out) == (0, "MR: true\n")


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "code", "check", str(tmp_path / "nope.txt"))
    assert code == 2


def test_bad_matrix_file_is_a_parse_error(capsys, tmp_path):
    # a short row, an entry outside the field and a field that does not exist
    # used to exit 3, the code of a bad parameter
    files = {
        "row length 3 does not match n=4": "field 13\n1 4\n1 2 3\n",
        "entry 13 outside GF(13)": "field 13\n1 4\n1 2 3 13\n",
        "characteristic must be prime": "field 4\n1 4\n1 2 3 0\n",
        "bad dimension line '1 x'": "field 13\n1 x\n1 2\n",
    }
    for message, text in files.items():
        mat = tmp_path / "bad.txt"
        mat.write_text(text)
        code, out, err = run(capsys, "code", "check", str(mat))
        assert code == 2, message
        assert message in err
        assert out == ""
    # as a command-line parameter, the same field stays a parameter error
    code, _, err = run(capsys, "code", "search", "8,4,3", "--field", "4", "--seed", "1")
    assert code == 3
    assert "characteristic must be prime" in err


def test_field_flag_with_a_bad_modulus_is_a_parameter_error(capsys, tmp_path):
    # a prime field with a modulus used to exit 2, unlike every other bad field
    for field, message in (("13:5", "prime fields take no modulus"), ("2^8:284", "reducible")):
        code, out, err = run(capsys, "code", "search", "8,4,3", "--field", field, "--seed", "1")
        assert code == 3, field
        assert message in err
        assert out == ""
    mat = tmp_path / "bad.txt"
    mat.write_text("field 13 modulus=5\n1 4\n1 2 3 0\n")
    code, _, err = run(capsys, "code", "check", str(mat))
    assert code == 2
    assert "prime fields take no modulus" in err


def test_code_check_high_rate_minor(capsys, tmp_path):
    # one column punctured per repair set of a (12,7,3) code: the [9,7] eq1 minor, MDS
    mat, punctured = tmp_path / "c.txt", tmp_path / "p.txt"
    run(capsys, "code", "search", "12,7,3", "--field", "257", "--seed", "7", "--trials", "5", "--out", str(mat))
    code, _, _ = run(capsys, "code", "puncture", str(mat), "--cols", "0,4,8", "--out", str(punctured))
    assert code == 0
    code, out, _ = run(capsys, "code", "check", str(punctured))
    assert (code, out) == (0, "MDS: true\n")


_NUMPY_PROBE = """
import json, sys
import mrlrc, mrlrc.cli
from mrlrc.cli import main

d = sys.argv[1]
runs = [
    ["bounds", "12,7,3"],
    ["sweep", "7", "3", "8", "60", "--out", d + "/sweep.csv"],
    ["code", "search", "8,4,3", "--field", "13", "--seed", "7", "--trials", "200", "--out", d + "/c.txt"],
    ["code", "check", d + "/c.txt", "--mr", "8,4,3"],
    ["code", "shorten", d + "/c.txt", "--cols", "0", "--out", d + "/s.txt"],
    ["code", "puncture", d + "/s.txt", "--cols", "0,3", "--out", d + "/p.txt"],
    ["code", "check", d + "/p.txt"],
]
codes = [main(argv) for argv in runs]
before = "numpy" in sys.modules
axioms = main(["axioms", "8,4,3"])
print(json.dumps({"codes": codes, "numpy_before": before, "axioms": axioms,
                  "numpy_after": "numpy" in sys.modules}))
"""


def test_formula_and_code_commands_never_import_numpy(tmp_path):
    # numpy is loaded on the first batch rank scan, never by import mrlrc
    src = str(Path(mrlrc.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0] * 7
    assert got["numpy_before"] is False
    assert got["axioms"] == 0
    assert got["numpy_after"] is True


_TIMED_RUNS = """
import json, sys, time
from mrlrc.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    t0 = time.perf_counter()
    code = main(argv)
    out.append([code, time.perf_counter() - t0])
print(json.dumps(out))
"""


def _timed_runs(runs):
    """[exit code, seconds] of each argv, run in one child capped at 2 GiB of address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(mrlrc.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_RUNS, json.dumps(runs)],
        capture_output=True, text=True, timeout=30, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_huge_field_specs_are_refused_at_once(tmp_path):
    # each is refused before work that grows with the number: trial division up
    # to sqrt(p), computing p^m, or splitting a negative modulus into base-p digits
    specs = ["1000000000000000003", "2^99999999999", "2^4:-19", "3^2:-10"]
    runs = [["code", "search", "8,4,3", "--field", s, "--seed", "1"] for s in specs]
    for i, head in enumerate(["field 1000000000000000003", "field 2^99999999999",
                              "field 2^4 modulus=-19", "field 3^2 modulus=-10"]):
        mat = tmp_path / f"m{i}.txt"
        mat.write_text(f"{head}\n1 4\n1 2 3 0\n")
        runs.append(["code", "check", str(mat)])
    got = _timed_runs(runs)
    assert [code for code, _ in got] == [3] * 4 + [2] * 4
    assert all(seconds < 1 for _, seconds in got), got


def test_huge_indices_are_refused_at_once(tmp_path):
    # an index past the 64-element ground limit is refused before its bit 1 << i is built
    mat = tmp_path / "m.txt"
    mat.write_text("field 13\n1 4\n1 2 3 0\n")
    got = _timed_runs([
        ["witness", "8,4,3", "--verify", "F=99999999999; X=; k'=2; n'=6"],
        ["code", "shorten", str(mat), "--cols", "99999999999"],
        ["bounds", "8,4,3:0,1,2,3;4,5,6,99999999999"],
    ])
    assert [code for code, _ in got] == [3, 3, 3]
    assert all(seconds < 1 for _, seconds in got), got


def test_wide_code_checks_are_refused_at_once(tmp_path, capsys):
    # each would take past the 2^25-step limit: 13 C(25,13) multiply-adds over the
    # C(26,13) - 1 square submatrices of A for a [26,13] MDS check, C(24,12) 12x12
    # column sets for --mr, or per search trial 271,151 6x6 difference matrices;
    # refused before the first rank.
    # A search past n = 64 is refused before it builds the repair sets, also at
    # h = 0 (one check per trial) and h = 1
    mat, wide = tmp_path / "m.txt", tmp_path / "w.txt"
    for path, k in ((mat, 12), (wide, 13)):
        rows = [" ".join("1" if j % k == i else "0" for j in range(2 * k)) for i in range(k)]
        path.write_text(f"field 257\n{k} {2 * k}\n" + "\n".join(rows) + "\n")
    runs = [
        ["code", "check", str(wide)],
        ["code", "check", str(mat), "--mr", "24,12,3"],
        ["code", "search", "24,12,3", "--field", "257", "--seed", "1"],
        ["code", "search", "200000,100000,1", "--field", "257", "--seed", "1"],
        ["code", "search", "131072,65535,1", "--field", "257", "--seed", "1"],
    ]
    got = _timed_runs(runs)
    assert [code for code, _ in got] == [4] * 5
    assert all(seconds < 1 for _, seconds in got), got
    counts = ["C(26,13) - 1 = 10400599 square submatrices of A", "C(24,12) = 2704156 column sets"]
    counts += ["271151 6x6 difference matrices per trial"]
    counts += ["n=200000 code; limit is n <= 64", "n=131072 code; limit is n <= 64"]
    for argv, count in zip(runs, counts):
        assert count in run(capsys, *argv)[2]


def test_sweep_from_a_huge_negative_n_min_answers_at_once(tmp_path):
    # the scan starts at n = r + 1, the least n that holds a repair set
    out, ref = tmp_path / "far.csv", tmp_path / "ref.csv"
    got = _timed_runs([
        ["sweep", "7", "3", "-100000000000", "60", "--out", str(out)],
        ["sweep", "7", "3", "1", "60", "--out", str(ref)],
    ])
    assert [code for code, _ in got] == [0, 0]
    assert got[0][1] < 1, got
    assert out.read_text().splitlines()[1:] == ref.read_text().splitlines()[1:]


def test_bounds_with_huge_families_are_refused_at_once(capsys):
    # eq4 lists k - r - 1 sizes: 9,999,998 and about 10^12 here, past the limit of 2,000
    got = _timed_runs([
        ["bounds", "20000000,10000000,1"],
        ["bounds", "2000000000000,1000000000000,1"],
        ["bounds", "400000,5,1"],
    ])
    assert [code for code, _ in got] == [4, 4, 0]
    assert all(seconds < 1 for _, seconds in got), got
    code, out, err = run(capsys, "bounds", "20000000,10000000,1")
    assert (code, out) == (4, "")
    assert "eq4 size of each of 9999998 ranks k'; limit is 2000" in err


def test_huge_n_answers_bounds_without_building_repair_sets():
    # bounds read n, k and r only; the 200,000 masks of n = 400,000 would take about 5 GB
    got = _timed_runs([["bounds", "400000,5,1"], ["bounds", "1000000,5,1"], ["axioms", "1000000,5,1"]])
    assert [code for code, _ in got] == [0, 0, 3]
