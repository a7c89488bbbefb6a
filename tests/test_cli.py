import numpy as np
import pytest

from sparsecond.cli import main
from sparsecond.linalg import write_matrix_file, write_vector_file
from sparsecond.patterns import lower_triangular_pattern, write_pattern_file


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

    def test_dimension_mismatch_exits_3(self, identity3, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        write_vector_file(np.ones(2), rhs)
        assert main(["cond", identity3, "--rhs", str(rhs)]) == 3

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


class TestBounds:
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
