import math

import numpy as np
import pytest

from sparsecond import conditioning, fplab, smoothed
from sparsecond.cli import main
from sparsecond.linalg import PatternedMatrix, write_matrix_file, write_vector_file
from sparsecond.patterns import NAMED_PATTERNS, lower_triangular_pattern, write_pattern_file


def write_spec(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


@pytest.fixture
def identity3(tmp_path):
    path = tmp_path / "identity3.txt"
    write_matrix_file(np.eye(3), path)
    return str(path)


class TestCond:
    def test_identity(self, identity3, capsys):
        assert main(["cond", identity3]) == 0
        out = capsys.readouterr().out
        assert "c_det = 3" in out
        assert "c_inv = 1" in out

    def test_2x2_golden(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        write_matrix_file(np.array([[1.0, 2.0], [3.0, 4.0]]), m)
        rhs = tmp_path / "b.txt"
        write_vector_file(np.array([1.0, 1.0]), rhs)
        assert main(["cond", str(m), "--rhs", str(rhs)]) == 0
        out = capsys.readouterr().out
        assert "c_det = 10" in out
        assert "c_solve = 16" in out

    def test_singular_prints_inf_and_exits_1(self, tmp_path, capsys):
        m = tmp_path / "sing.txt"
        write_matrix_file(np.array([[1.0, 2.0], [2.0, 4.0]]), m)
        assert main(["cond", str(m)]) == 1
        assert "+inf" in capsys.readouterr().out

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2 3\n")
        assert main(["cond", str(bad)]) == 2

    def test_dimension_mismatch_exits_2(self, identity3, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        write_vector_file(np.ones(2), rhs)
        assert main(["cond", identity3, "--rhs", str(rhs)]) == 2
        m = tmp_path / "m.txt"
        write_matrix_file(np.eye(2), m)
        patfile = tmp_path / "pat.txt"
        write_pattern_file(lower_triangular_pattern(3), patfile)
        assert main(["cond", str(m), "--pattern", str(patfile)]) == 2

    def test_pattern_file_and_entries(self, tmp_path, capsys):
        pat = lower_triangular_pattern(2)
        patfile = tmp_path / "pat.txt"
        write_pattern_file(pat, patfile)
        m = tmp_path / "m.txt"
        write_matrix_file(np.array([[2.0, 0.0], [1.0, 3.0]]), m)
        assert main(["cond", str(m), "--pattern", str(patfile), "--entries"]) == 0
        out = capsys.readouterr().out
        assert "c_inv_entry_1_1" in out

    def test_csv_output(self, identity3, tmp_path, capsys):
        csv = tmp_path / "rep.csv"
        assert main(["cond", identity3, "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("n,S_size,c_det")
        assert lines[1].startswith("3,9,3")


class TestTail:
    def test_threshold_below_floor_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=4,
                          center="zero", sigma=1, quantity="det",
                          thresholds="10", samples=500, seed=1)
        assert main(["tail", "--spec", spec]) == 2
        assert "floor" in capsys.readouterr().err

    def test_degenerate_sigma_never_fails(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="full", n=3,
                          center="identity", sigma="1e-12", quantity="det",
                          thresholds="20,50", samples=500, seed=2)
        assert main(["tail", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_byte_identical_reruns_and_workers(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=3,
                          center="zero", sigma=1, quantity="det",
                          thresholds="50,100", samples=9000, seed=3)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        assert main(["tail", "--spec", spec, "--out", str(out1)]) == 0
        assert main(["tail", "--spec", spec, "--out", str(out2)]) == 0
        assert main(["tail", "--spec", spec, "--out", str(out3), "--workers", "3"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "s.txt"
        spec.write_text("patern = full\n")
        assert main(["tail", "--spec", str(spec)]) == 2

    def test_seed_required(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="full", n=2, center="zero",
                          sigma=1, quantity="det", thresholds="30", samples=500)
        assert main(["tail", "--spec", spec]) == 2
        assert main(["tail", "--spec", spec, "--seed", "7"]) == 0
        capsys.readouterr()

    def test_file_based_pattern_center_and_rhs(self, tmp_path, capsys):
        from sparsecond.patterns import tridiagonal_pattern
        patfile = tmp_path / "pat.txt"
        write_pattern_file(tridiagonal_pattern(3), patfile)
        centerfile = tmp_path / "center.txt"
        write_matrix_file(np.eye(3), centerfile)
        rhsfile = tmp_path / "rhs.txt"
        write_vector_file(np.full(3, 0.5), rhsfile)
        spec = write_spec(tmp_path / "s.txt", pattern=f"file:{patfile}",
                          center=f"file:{centerfile}", center_rhs=f"file:{rhsfile}",
                          sigma=1, quantity="solve", thresholds="50,100",
                          samples=500, seed=11)
        assert main(["tail", "--spec", spec]) == 0
        assert "S_size=7" in capsys.readouterr().out

    def test_center_file_violating_norm_exits_2(self, tmp_path, capsys):
        centerfile = tmp_path / "center.txt"
        write_matrix_file(2.0 * np.eye(2), centerfile)
        spec = write_spec(tmp_path / "s.txt", pattern="full", n=2,
                          center=f"file:{centerfile}", sigma=1, quantity="det",
                          thresholds="30", samples=500, seed=12)
        assert main(["tail", "--spec", spec]) == 2
        assert "max-norm" in capsys.readouterr().err


class TestLogexp:
    def test_run_and_csv(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=4,
                          center="zero", sigma=1, quantity="solve",
                          center_rhs="zero", samples=2000, seed=4, beta="2.718281828459045")
        out = tmp_path / "le.csv"
        assert main(["logexp", "--spec", spec, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("quantity,n,S_size,sigma,beta,mean")
        rep = capsys.readouterr().out
        assert "PASS" in rep

    def test_triangular_theoretical_value(self, tmp_path, capsys):
        # n=10, sigma=1, beta=e: ln 2 + 5 ln 10 + 2.65
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=10,
                          center="zero", sigma=1, quantity="solve",
                          center_rhs="zero", samples=500, seed=5)
        out = tmp_path / "le.csv"
        assert main(["logexp", "--spec", spec, "--out", str(out)]) == 0
        capsys.readouterr()
        theoretical = float(out.read_text().splitlines()[1].split(",")[7])
        assert theoretical == pytest.approx(14.856, abs=5e-3)

    @pytest.mark.filterwarnings("error")
    def test_no_finite_sample_fails_with_exit_3(self, tmp_path, capsys):
        # entries near the top of the double range: every draw is singular
        # or overflows, so the mean is NaN and the run must fail
        spec = write_spec(tmp_path / "s.txt", pattern="full", n=10, center="zero",
                          sigma="1e308", quantity="det", samples=100, seed=1)
        out = tmp_path / "le.csv"
        assert main(["logexp", "--spec", spec, "--out", str(out)]) == 3
        assert "FAIL" in capsys.readouterr().out
        assert out.read_text().splitlines()[1].split(",")[5] == "nan"


class TestProp4:
    def test_run(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", mu=0, sigma=1,
                          thresholds="2,10", samples=20000, seed=6)
        assert main(["prop4", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_floor_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", mu=0, sigma=1,
                          thresholds="1", samples=20000, seed=6)
        assert main(["prop4", "--spec", spec]) == 2


class TestAccuracy:
    def test_run_and_determinism(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=6,
                          center="zero", center_rhs="zero", sigma=1,
                          precision_bits=24, samples=300, seed=7)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["accuracy", "--spec", spec, "--out", str(out1)]) == 0
        assert main(["accuracy", "--spec", spec, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "seed,n,sigma,p,rel_error,lop,omega,backward_bound,lop_prediction"

    def test_precision_out_of_range_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=6,
                          center="zero", sigma=1, precision_bits=60,
                          samples=300, seed=8)
        assert main(["accuracy", "--spec", spec]) == 2

    def test_n1_exits_2_naming_the_requirement(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="lower_triangular", n=1,
                          center="zero", sigma=1, precision_bits=24,
                          samples=300, seed=10)
        assert main(["accuracy", "--spec", spec]) == 2
        assert "n >= 2" in capsys.readouterr().err

    def test_non_triangular_pattern_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.txt", pattern="full", n=4,
                          center="zero", sigma=1, precision_bits=24,
                          samples=300, seed=9)
        assert main(["accuracy", "--spec", spec]) == 2


def bounds_field_by_field(pattern, n, sigma, thresholds, beta):
    """The bounds table built from each named bound function in turn."""
    s = len(NAMED_PATTERNS[pattern](n))
    lines = [f"bounds: pattern={pattern} n={n} S_size={s} sigma={sigma:g} beta={beta:g}"]
    for t in thresholds:
        cells = [f"t={t:<12g}", f"det_tail={smoothed.det_tail_bound(s, sigma, t):<12.6g}",
                 f"inv_tail={smoothed.inverse_tail_bound(n, s, sigma, t):<12.6g}",
                 f"solve_tail={smoothed.solve_tail_bound(n, s, sigma, t):<12.6g}"]
        if pattern == "lower_triangular":
            cells.append(f"triangular_tail={smoothed.triangular_tail_bound(n, sigma, t):.6g}")
        lines.append("  " + " ".join(cells))
    cells = [f"logexp(beta={beta:g})", f"det={smoothed.det_logexp_bound(s, sigma, beta):<12.6g}",
             f"inv={smoothed.inverse_logexp_bound(n, s, sigma, beta):<12.6g}",
             f"solve={smoothed.solve_logexp_bound(n, s, sigma, beta):<12.6g}"]
    if pattern == "lower_triangular":
        cells.append(f"triangular={smoothed.triangular_logexp_bound(n, sigma, beta):.6g}")
    lines.append("  " + " ".join(cells))
    return "\n".join(lines) + "\n"


class TestBounds:
    @pytest.mark.parametrize("pattern", ["full", "lower_triangular", "tridiagonal"])
    @pytest.mark.parametrize("sigma_args, sigma", [(["--sigma", "1"], 1.0),
                                                   (["--sigma", "0.5"], 0.5),
                                                   (["--no-sigma-factor"], math.inf)])
    @pytest.mark.parametrize("t_args, thresholds", [([], []), (["--t", "1e4,1e6"], [1e4, 1e6])])
    @pytest.mark.parametrize("beta_args, beta", [([], math.e), (["--beta", "10"], 10.0)])
    def test_table_equals_the_field_by_field_builder(self, pattern, sigma_args, sigma, t_args,
                                                     thresholds, beta_args, beta, capsys):
        argv = ["bounds", "--n", "4", "--pattern", pattern, *sigma_args, *t_args, *beta_args]
        assert main(argv) == 0
        assert capsys.readouterr().out == bounds_field_by_field(pattern, 4, sigma, thresholds,
                                                                beta)

    @pytest.mark.parametrize("extra, message", [
        (["--n", "0", "--sigma", "1"], "dimension must be positive, got 0"),
        (["--n", "4", "--sigma", "0"], "sigma must be positive, got 0.0"),
        (["--n", "4", "--sigma", "nan"], "sigma must be positive, got nan"),
        (["--n", "4"], "--sigma is required")])
    def test_invalid_arguments_exit_2(self, extra, message, capsys):
        assert main(["bounds", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_triangular_tail_value(self, capsys):
        assert main(["bounds", "--n", "2", "--sigma", "1", "--t", "20"]) == 0
        out = capsys.readouterr().out
        assert "triangular_tail=8.20681" in out

    def test_logexp_beta10(self, capsys):
        assert main(["bounds", "--n", "10", "--sigma", "1", "--beta", "10"]) == 0
        out = capsys.readouterr().out
        # log10 2 + 5 + 2.65/ln 10 = 6.4519
        assert "triangular=6.45191" in out

    def test_sigma_limit_flag(self, capsys):
        assert main(["bounds", "--n", "2", "--no-sigma-factor", "--t", "20"]) == 0
        out = capsys.readouterr().out
        assert "triangular_tail=4.1034" in out  # half of the sigma=1 value

    def test_out_of_domain_exits_2(self, capsys):
        assert main(["bounds", "--n", "2", "--sigma", "1", "--t", "5"]) == 2

    def test_bad_thresholds_exit_2_as_in_a_spec(self, capsys):
        assert main(["bounds", "--n", "2", "--sigma", "1", "--t", "20,x"]) == 2
        assert "bad thresholds: '20,x'" in capsys.readouterr().err


def _lower_model(n, rhs):
    pattern = lower_triangular_pattern(n)
    return smoothed.GaussianModel(pattern=pattern,
                                  center=PatternedMatrix(pattern, np.zeros((n, n))),
                                  sigma=1.0, center_rhs=np.zeros(n) if rhs else None)


# command -> (spec, the same run through the library, its result class)
EXPERIMENTS = {
    "tail": (dict(pattern="lower_triangular", n=3, center="zero", sigma=1,
                  quantity="det", thresholds="50,100", samples=400, seed=21),
             lambda: smoothed.estimate_tail(_lower_model(3, False), "det", [50.0, 100.0],
                                            400, 21),
             smoothed.TailEstimate),
    "logexp": (dict(pattern="lower_triangular", n=4, center="zero", center_rhs="zero",
                    sigma=1, quantity="solve", samples=400, seed=22),
               lambda: smoothed.estimate_logexp(_lower_model(4, True), "solve", math.e,
                                                400, 22),
               smoothed.LogExpectationEstimate),
    "prop4": (dict(mu=0, sigma=1, thresholds="2,10", samples=10000, seed=23),
              lambda: smoothed.verify_ratio_tail(0.0, 1.0, [2.0, 10.0], 10000, 23),
              smoothed.TailEstimate),
    "accuracy": (dict(pattern="lower_triangular", n=4, center="zero", center_rhs="zero",
                      sigma=1, precision_bits=24, samples=300, seed=24),
                 lambda: fplab.run_accuracy_experiment(_lower_model(4, True),
                                                       fplab.PrecisionConfig(24), 300, 24),
                 fplab.AccuracySummary),
}


@pytest.mark.parametrize("command", list(EXPERIMENTS))
class TestOneDecisionPerCommand:
    """Report, CSV and exit code of a stochastic command all come from its result."""

    def test_cli_prints_writes_and_exits_what_the_result_says(self, command, tmp_path,
                                                              capsys):
        keys, library_run, _ = EXPERIMENTS[command]
        spec = write_spec(tmp_path / "s.txt", **keys)
        out = tmp_path / "out.csv"
        code = main([command, "--spec", spec, "--out", str(out)])
        result = library_run()
        assert capsys.readouterr().out == result.to_report_text()
        assert out.read_text() == result.to_csv_text()
        assert code == (0 if result.passed() else 3)

    def test_a_failed_verdict_exits_3(self, command, tmp_path, capsys, monkeypatch):
        keys, _, result_class = EXPERIMENTS[command]
        monkeypatch.setattr(result_class, "passed", lambda self: False)
        assert main([command, "--spec", write_spec(tmp_path / "s.txt", **keys)]) == 3
        capsys.readouterr()


# command -> invalid inputs, as spec keys to change and extra arguments; each
# must exit 2 before the first draw
INVALID = {
    "tail": [({"sigma": "nan"}, []), ({"sigma": "inf"}, []), ({"thresholds": "nan, 100"}, []),
             ({"thresholds": "6"}, []), ({}, ["--workers", "0"])],
    "logexp": [({"sigma": "nan"}, []), ({"beta": "nan"}, []), ({"quantity": "cond"}, []),
               ({}, ["--workers", "-1"])],
    "prop4": [({"sigma": "nan"}, []), ({"mu": "nan"}, []), ({"sigma": "inf"}, []),
              ({"thresholds": "1"}, []), ({}, ["--workers", "0"])],
    "accuracy": [({"sigma": "nan"}, []), ({"center_rhs": "ones", "sigma": "inf"}, []),
                 ({"n": 1}, []), ({}, ["--workers", "0"])],
}


@pytest.mark.parametrize("command", list(EXPERIMENTS))
def test_invalid_input_exits_2_before_the_first_draw(command, tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a sample from invalid input")

    monkeypatch.setattr(smoothed, "_chunk_generator", no_draws)
    for change, extra in INVALID[command]:
        spec = write_spec(tmp_path / "s.txt", **dict(EXPERIMENTS[command][0], **change))
        out = tmp_path / "out.csv"
        assert main([command, "--spec", spec, "--out", str(out), *extra]) == 2, change or extra
        assert not out.exists() and capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [0, -3])
def test_a_spec_dimension_below_1_is_the_pattern_error(n, tmp_path, capsys):
    # the spec's n reaches SparsityPattern unchecked, as bounds --n does
    spec = write_spec(tmp_path / "s.txt", **dict(EXPERIMENTS["tail"][0], n=n))
    assert main(["tail", "--spec", spec]) == 2
    from_spec = capsys.readouterr()
    assert main(["bounds", "--n", str(n), "--sigma", "1"]) == 2
    assert capsys.readouterr() == from_spec
    assert from_spec.out == "" and from_spec.err == f"error: dimension must be positive, got {n}\n"


def _multi_chunk_specs():
    """Each EXPERIMENTS spec over at least two chunks, and tail on inv and solve."""
    for command, (keys, _, _) in EXPERIMENTS.items():
        yield command, dict(keys, samples=max(keys["samples"], 4096 + 300))
    for quantity in ("inv", "solve"):
        yield "tail", dict(EXPERIMENTS["tail"][0], quantity=quantity, center_rhs="ones",
                           samples=4096 + 300)


@pytest.mark.parametrize("command,keys", list(_multi_chunk_specs()),
                         ids=["tail", "logexp", "prop4", "accuracy", "tail-inv", "tail-solve"])
def test_stdout_csv_and_exit_code_do_not_depend_on_workers(command, keys, tmp_path, capsys):
    spec = write_spec(tmp_path / "s.txt", **keys)
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.csv"
        code = main([command, "--spec", spec, "--out", str(out), "--workers", workers])
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["logexp", "accuracy"])
def test_stdout_csv_and_exit_code_do_not_depend_on_the_tile_size(command, tmp_path, capsys,
                                                                 monkeypatch):
    # 1000 draws at n = 30 span several tiles at both sizes, none of them full
    spec = write_spec(tmp_path / "s.txt", **dict(EXPERIMENTS[command][0], n=30, samples=1000))
    assert conditioning._tile_members(30) < 1000
    runs = []
    for tile_bytes in (2 << 20, conditioning._TILE_BYTES):
        monkeypatch.setattr(conditioning, "_TILE_BYTES", tile_bytes)
        out = tmp_path / f"out{tile_bytes}.csv"
        code = main([command, "--spec", spec, "--out", str(out)])
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
