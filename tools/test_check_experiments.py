#!/usr/bin/env python3
"""Self-test for tools/check_experiments.py: the comparison passes on the
committed CSVs, fails on one changed accuracy digit planted in a temporary
copy, and ignores a changed timing cell. Needs no build.

Usage: python3 tools/test_check_experiments.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_experiments as ce  # noqa: E402


def csv_names() -> list[str]:
    return [name for csvs in ce.EXPERIMENTS.values() for name in csvs]


class CheckExperimentsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="qpinn_exp_test_")
        self.copy = Path(self._tmp.name)
        for name in csv_names():
            shutil.copy(ce.REPO / name, self.copy / name)

    def tearDown(self):
        self._tmp.cleanup()

    def replace(self, name: str, old: str, new: str) -> None:
        path = self.copy / name
        text = path.read_text(encoding="utf-8")
        self.assertIn(old, text)
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    def test_committed_csvs_match_themselves(self):
        self.assertEqual(ce.compare_dirs(ce.REPO, self.copy), [])

    def test_one_changed_accuracy_digit_fails(self):
        rows = ce.read_csv(self.copy / "exp_t1_accuracy.csv")
        col = rows[0].index("rel L2")
        cell = rows[1][col]
        planted = cell[:-1] + ("1" if cell[-1] != "1" else "2")
        self.replace("exp_t1_accuracy.csv", f",{cell},", f",{planted},")
        findings = ce.compare_dirs(ce.REPO, self.copy)
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("'rel L2'", findings[0])

    def test_timing_columns_are_skipped(self):
        rows = ce.read_csv(self.copy / "exp_t3_scaling.csv")
        rows[1][rows[0].index("step ms")] = "999.99"
        rows[1][rows[0].index("cores used")] = "0.10"
        rows[1][rows[0].index("host serialized")] = "yes"
        text = "\n".join(",".join(row) for row in rows) + "\n"
        (self.copy / "exp_t3_scaling.csv").write_text(text, encoding="utf-8")
        self.assertEqual(ce.compare_dirs(ce.REPO, self.copy), [])

    def test_missing_row_fails(self):
        path = self.copy / "exp_f3_norm_drift.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        self.assertEqual(len(ce.compare_dirs(ce.REPO, self.copy)), 1)


if __name__ == "__main__":
    unittest.main()
