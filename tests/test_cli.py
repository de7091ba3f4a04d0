import math
import os
import re

import numpy as np
import pytest

from hbplate.cli import main, records_to_csv
from hbplate.adaptivity import IterationRecord


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestCsvFormat:
    def test_nan_written_as_nan(self):
        rec = IterationRecord(0, 10, 4, 0.5)
        text = records_to_csv([rec])
        row = text.strip().split("\n")[1]
        assert row.split(",")[4] == "nan"

    def test_seventeen_significant_digits(self):
        rec = IterationRecord(0, 10, 4, h_max=1.0 / 3.0, error_h2=math.pi)
        text = records_to_csv([rec])
        row = text.strip().split("\n")[1].split(",")
        assert row[3] == "%.17g" % (1.0 / 3.0)
        assert float(row[4]) == math.pi


class TestMain:
    def test_smooth_uniform_five_iterations(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["--benchmark", "smooth", "--degree", "3", "--refine", "uniform",
                     "--max-iter", "5", "--n0", "2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert list(header) == ["iteration", "dofs", "n_elements", "h_max",
                                "error_h2", "eta_total", "theta", "qoi"]
        assert len(rows) == 5
        for row in rows:
            assert np.isfinite(float(row["error_h2"]))
        summary = capsys.readouterr().out
        assert "slope_vs_h=" in summary
        slope = float(summary.split("slope_vs_h=")[1].split()[0])
        assert slope == pytest.approx(2.0, abs=0.25)

    def test_point_load_adaptive_qoi_converges(self, tmp_path, capsys):
        out = tmp_path / "pl.csv"
        code = main(["--benchmark", "point_load", "--refine", "adaptive",
                     "--estimator", "bubble", "--max-iter", "8", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        qois = [float(r["qoi"]) for r in rows]
        assert all(np.isfinite(q) for q in qois)
        reference = -0.011600839735872
        assert abs(1.0 - qois[-1] / reference) < abs(1.0 - qois[0] / reference)
        assert "qoi_rel_err=" in capsys.readouterr().out

    def test_residual_estimator_dispatch(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(["--benchmark", "smooth", "--estimator", "residual",
                     "--refine", "adaptive", "--max-iter", "2", "--n0", "2",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_unknown_benchmark_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "bogus"])
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--benchmark", "smooth", "--frobnicate"])
        assert exc.value.code == 2

    def test_mesh_dump_files_written(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["--benchmark", "smooth", "--refine", "adaptive", "--n0", "2",
                     "--max-iter", "2", "--out", str(out), "--dump-mesh"])
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        assert "r_mesh_000.txt" in files
        assert "r_mesh_001.txt" in files
        with open(tmp_path / "r_mesh_001.txt") as fh:
            for line in fh.read().strip().split("\n"):
                assert len(line.split()) == 5

    def test_sequential_rerun_is_bit_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["--benchmark", "smooth", "--degree", "3", "--refine", "adaptive",
                "--max-iter", "3", "--n0", "2"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestArguments:
    @pytest.mark.parametrize("flags,message", [
        (["--n0", "0"], "n0 must be at least 1"),
        (["--max-iter", "0"], "iteration and dof budgets must be positive"),
        (["--gamma", "1.5"], r"gamma must lie in \(0, 1\)"),
        (["--ca", "-1"], "calibration must be finite and positive"),
        (["--ca", "nan"], "calibration must be finite and positive"),
    ])
    def test_bad_value_is_a_usage_error(self, flags, message, tmp_path, capsys):
        # rejected before any solve: exit status 2 with the reason, and no
        # records written
        out = tmp_path / "records.csv"
        with pytest.raises(SystemExit) as info:
            main(["--benchmark", "smooth", "--out", str(out)] + flags)
        assert info.value.code == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()
