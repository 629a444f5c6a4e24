import numpy as np
import pytest

from hybridfg.dataset import (DatasetParseError, LoopClosure, Odometry,
                              parse_dataset, square_loop_dataset,
                              square_loop_truth, write_dataset)
from hybridfg.nonlinear import between

from helpers import run_module


class TestParseDataset:
    def test_single_hypothesis_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("ODOM 0 1 1 1.0 0.0 0.0 0.01 0.005\n")
        (e,) = parse_dataset(p)
        assert isinstance(e, Odometry)
        assert e.frm == 0 and e.to == 1
        assert e.hypotheses == ((1.0, 0.0, 0.0),)
        assert e.sigma_xy == 0.01 and e.sigma_theta == 0.005

    def test_two_hypothesis_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("ODOM 0 1 2 1 0 0 0 1 0 0.01 0.005\n")
        (e,) = parse_dataset(p)
        assert e.hypotheses == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    def test_loop_line(self, tmp_path):
        p = tmp_path / "d.txt"
        chain = "".join(f"ODOM {k} {k + 1} 1 1 0 0 0.01 0.005\n" for k in range(9))
        p.write_text(chain + "# comment\nLOOP 2 9 0.1 -0.2 0.05 0.01 0.005\n")
        *_, e = parse_dataset(p)
        assert isinstance(e, LoopClosure)
        assert (e.frm, e.to) == (2, 9)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("ODOM 0 1 1 1.0 0.0 0.0 0.01 0.005\nLOOP 1 2 oops\n")
        with pytest.raises(DatasetParseError, match=":2:"):
            parse_dataset(p)

    def test_nonpositive_hypothesis_count_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("ODOM 0 1 0 0.01 0.005\n")
        with pytest.raises(DatasetParseError, match="positive"):
            parse_dataset(p)

    def test_unknown_record_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("POSE 0 0 0 0\n")
        with pytest.raises(DatasetParseError, match="unknown record"):
            parse_dataset(p)

    def test_round_trip_identity(self, tmp_path):
        """write -> parse is the identity on random datasets."""
        rng = np.random.default_rng(0)
        for trial in range(100):
            entries = []
            last = 0
            for _ in range(int(rng.integers(1, 8))):
                if last == 0 or rng.random() < 0.7:
                    n = int(rng.integers(1, 4))
                    hyps = tuple(tuple(rng.normal(size=3).round(9)) for _ in range(n))
                    entries.append(Odometry(last, last + 1, hyps,
                                            float(rng.uniform(0.001, 0.1)),
                                            float(rng.uniform(0.001, 0.1))))
                    last += 1
                else:
                    entries.append(LoopClosure(int(rng.integers(last)), last,
                                               *rng.normal(size=3).round(9),
                                               float(rng.uniform(0.001, 0.1)),
                                               float(rng.uniform(0.001, 0.1))))
            p = tmp_path / f"d{trial}.txt"
            write_dataset(entries, p)
            assert parse_dataset(p) == entries


class TestEntryValidation:
    def test_loop_requires_from_before_to(self):
        with pytest.raises(ValueError):
            LoopClosure(5, 5, 0, 0, 0, 0.1, 0.1)

    def test_sigmas_positive(self):
        with pytest.raises(ValueError):
            Odometry(0, 1, ((0, 0, 0),), 0.0, 0.1)

    @pytest.mark.parametrize("frm, to", [(1, 1), (2, 1)])
    def test_odometry_requires_from_before_to(self, frm, to):
        with pytest.raises(ValueError, match="from < to"):
            Odometry(frm, to, ((0, 0, 0),), 0.1, 0.1)

    def test_numbers_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Odometry(0, 1, ((float("nan"), 0, 0),), 0.1, 0.1)
        with pytest.raises(ValueError, match="finite"):
            LoopClosure(0, 1, 0, 0, 0, 0.1, float("inf"))


class TestGenerator:
    def test_shape(self):
        entries, truth, true_modes = square_loop_dataset(seed=0)
        assert len(truth) == 100
        odo = [e for e in entries if isinstance(e, Odometry)]
        amb = [e for e in odo if len(e.hypotheses) > 1]
        loops = [e for e in entries if isinstance(e, LoopClosure)]
        assert len(odo) == 99
        assert len(amb) == 10
        assert len(loops) == 4
        assert len(true_modes) == 10

    def test_lap_alignment(self):
        truth = square_loop_truth(100)
        for k in range(50, 100):
            d = between(truth[k - 50], truth[k]).as_vector()
            np.testing.assert_allclose(d, [0.0, 0.0, 0.0], atol=1e-9)

    def test_true_mode_is_accurate_hypothesis(self):
        entries, truth, true_modes = square_loop_dataset(seed=3)
        order = 0
        for e in entries:
            if isinstance(e, Odometry) and len(e.hypotheses) > 1:
                rel = between(truth[e.frm], truth[e.to]).as_vector()
                errs = [np.hypot(h[0] - rel[0], h[1] - rel[1]) for h in e.hypotheses]
                assert int(np.argmin(errs)) == true_modes[order]
                # The decoy sits far outside the noise band.
                assert max(errs) >= 10 * e.sigma_xy
                order += 1

    def test_deterministic_for_seed(self):
        e1, t1, m1 = square_loop_dataset(seed=5)
        e2, t2, m2 = square_loop_dataset(seed=5)
        assert e1 == e2 and m1 == m2

    @pytest.mark.parametrize("shape", [(60, 4, 2), (52, 1, 1), (61, 4, 2),
                                       (74, 10, 4)])
    def test_refuses_shapes_it_cannot_place(self, shape):
        with pytest.raises(ValueError, match="can place only"):
            square_loop_dataset(0, *shape)

    @pytest.mark.parametrize("shape", [(65, 4, 2), (75, 10, 4), (100, 10, 4),
                                       (200, 10, 10)])
    def test_places_exactly_what_it_is_asked(self, shape):
        num_poses, n_ambiguous, n_loops = shape
        entries, truth, true_modes = square_loop_dataset(0, *shape)
        amb = [e for e in entries
               if isinstance(e, Odometry) and len(e.hypotheses) > 1]
        loops = [e for e in entries if isinstance(e, LoopClosure)]
        assert len(truth) == num_poses
        assert len(amb) == len(true_modes) == n_ambiguous
        assert len(loops) == n_loops


class TestGeneratorCli:
    @pytest.mark.parametrize("output, option, message", [
        ("d.txt", ["--loops", "0"], "loop closure"),
        ("d.txt", ["--poses", "10"], "poses"),
        ("d.txt", ["--ambiguous", "-1"], "ambiguous"),
        ("missing/d.txt", [], "error:"),
        ("d.txt", ["--poses", "60", "--ambiguous", "4", "--loops", "2"],
         "can place only")])
    def test_bad_argument_is_usage_error(self, tmp_path, output, option, message):
        proc = run_module("hybridfg.dataset", "--output", str(tmp_path / output),
                          *option)
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_writes_dataset_and_truth(self, tmp_path):
        out, truth = tmp_path / "d.txt", tmp_path / "truth.txt"
        proc = run_module("hybridfg.dataset", "--output", str(out),
                          "--truth", str(truth), "--poses", "75")
        assert proc.returncode == 0, proc.stderr
        entries, _, _ = square_loop_dataset(num_poses=75)
        assert parse_dataset(out) == entries
        assert len(truth.read_text().splitlines()) == 75
