"""Self-tests for the benchmark's span arithmetic and output checks.

    python3 perfbench/selftest.py

They live here, not under tests/, so the package's own test suite does not
collect them.
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ebggm.cli import main as ebggm_main  # noqa: E402
from ebggm.hiw import Hyperparams  # noqa: E402

STEPS, BURN = 300, 50
HP = Hyperparams(tau=0.25, r=0.4)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # cli [0, 10] holds a [1, 4] (holding b [2, 3]) and c [5, 9]
        # (holding another "a" [6, 7]).
        names = ["cli", "a", "b", "c"]
        parent = [-1, 0, 1, 0, 3]
        name = [0, 1, 2, 3, 1]
        start = [0.0, 1.0, 2.0, 5.0, 6.0]
        end = [10.0, 4.0, 3.0, 9.0, 7.0]
        own = spans.self_times(parent, name, start, end, names)
        self.assertEqual(own, {"cli": 3.0, "a": 3.0, "b": 1.0, "c": 3.0})
        self.assertEqual(sum(own.values()), end[0] - start[0])


class SampleCheckTest(unittest.TestCase):
    """A genuine short chain passes; corrupted copies of it fail."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        data = inputs.make_dataset("figure1", 0, 0, cls.tmp.name)
        cls.data_csv = data["csv"]
        cls.out = os.path.join(cls.tmp.name, "out")
        code = ebggm_main(["sample", "--data", cls.data_csv, "--kernel",
                           "alternate", "--tau", "0.25", "--r", "0.4",
                           "--n-steps", str(STEPS), "--n-burn", str(BURN),
                           "--out-dir", cls.out])
        assert code == 0
        with open(os.path.join(cls.out, "visits.csv")) as fh:
            cls.lines = fh.read().splitlines()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, lines):
        with open(os.path.join(self.out, "visits.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return checks.check_sample(self.out, self.data_csv, HP, STEPS, BURN,
                                   checks.ChordalOracle(),
                                   np.random.default_rng(0))

    def fail_frac_with(self, lines):
        records = [{"problems": self.check(self.lines)},
                   {"problems": self.check(lines)}]
        return run.fail_frac(records), records[1]["problems"]

    def test_genuine_output_passes(self):
        self.assertEqual(run.fail_frac([{"problems": self.check(self.lines)}]), 0)

    def test_corrupted_row_raises_fail_frac(self):
        lines = list(self.lines)
        cells = lines[10].split(",")
        cells[2] = str(int(cells[2]) + 1)
        lines[10] = ",".join(cells)
        frac, problems = self.fail_frac_with(lines)
        self.assertEqual(frac, 0.5)
        self.assertIn("row 11: k_edges", problems[0])

    def test_missing_row_raises_fail_frac(self):
        frac, problems = self.fail_frac_with(self.lines[:-1])
        self.assertEqual(frac, 0.5)
        self.assertIn("rows for", problems[0])

    def test_non_chordal_graph_raises_fail_frac(self):
        # The 4-cycle 0-1-2-3-0 has no chord; every row stays on it, so the
        # per-row checks pass and only the chordality oracle can object.
        cycle = sum(1 << k for k in (0, 2, 8, 15))  # (0,1) (0,3) (1,2) (2,3)
        self.assertEqual(checks.ChordalOracle.edges(9, cycle),
                         [(0, 1), (0, 3), (1, 2), (2, 3)])
        lines = [self.lines[0]]
        for t in range(STEPS):
            lines.append(f"{BURN + t + 1},{cycle:09x},4,-100.0,0")
        frac, problems = self.fail_frac_with(lines)
        self.assertEqual(frac, 0.5)
        self.assertIn("non-chordal", problems[0])


if __name__ == "__main__":
    unittest.main()
