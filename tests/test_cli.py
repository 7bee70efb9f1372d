"""End-to-end tests of the command-line interface and its exit codes."""

import json
import weakref

import numpy as np
import pytest

from grouprisk import cli
from grouprisk.cli import SWEEP_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timings(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


class TestTrainCommand:
    def test_happy_path_json(self, capsys):
        code, out, _ = run(capsys, "train", "--data", "synth", "--aggregator",
                           "cvar", "--alpha", "0.9", "--loss", "squared_hinge",
                           "--seed", "1", "--epochs", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "grouprisk"
        assert doc["train"]["rho"] is not None
        assert len(doc["train"]["final_subgroup_risks"]["values"]) == 2
        assert doc["evaluation"]["train"]["zero_one_risk"] is not None
        assert doc["evaluation"]["test"]["dp_violation"] >= 0.0

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "train", "--alpha", "1.5", "--epochs", "5")
        assert code == 2
        assert "alpha" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "train", "--no-such-flag")
        assert code == 2

    def test_missing_csv_schema_exits_2(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,g,y\n1,0,yes\n")
        code, _, _ = run(capsys, "train", "--data", str(path), "--epochs", "5")
        assert code == 2

    def test_ingestion_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,g,y\n1,0,yes\n")
        code, _, err = run(capsys, "train", "--data", str(path),
                           "--label-col", "y", "--sensitive-col", "missing",
                           "--positive-token", "yes", "--epochs", "5")
        assert code == 3
        assert "missing" in err

    def test_missing_data_path_exits_3(self, capsys, tmp_path):
        path = str(tmp_path / "nope.csv")
        code, _, err = run(capsys, "train", "--data", path, "--label-col",
                           "y", "--sensitive-col", "g")
        assert code == 3
        assert err.startswith("error: ") and path in err

    def test_directory_as_data_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--alphas", "0.5", "--data",
                           str(tmp_path), "--label-col", "y",
                           "--sensitive-col", "g")
        assert code == 3
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_non_utf8_csv_exits_3(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,g,y\n1,caf\u00e9,yes\n".encode("latin-1"))
        code, _, err = run(capsys, "train", "--data", str(path), "--label-col",
                           "y", "--sensitive-col", "g", "--positive-token",
                           "yes")
        assert code == 3
        assert "UTF-8" in err and str(path) in err

    def test_oversized_csv_field_exits_3(self, capsys, tmp_path):
        # the csv module refuses fields beyond its 131072-character limit
        path = tmp_path / "huge.csv"
        path.write_text("a,g,y\n1,0,yes\n2," + "x" * 200_000 + ",no\n")
        code, _, err = run(capsys, "train", "--data", str(path), "--label-col",
                           "y", "--sensitive-col", "g", "--positive-token",
                           "yes")
        assert code == 3
        assert "row 3" in err and str(path) in err

    def test_output_into_missing_directory_exits_2(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "run.json")
        code, stdout, err = run(capsys, "train", "--epochs", "2", "--output",
                                out)
        assert code == 2
        assert stdout == "" and err.startswith("error: --output") and out in err

    def test_unwritable_output_found_before_loading_data(self, capsys,
                                                         tmp_path):
        out = str(tmp_path / "missing" / "run.json")
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "no.csv"),
                           "--label-col", "y", "--sensitive-col", "g",
                           "--output", out)
        assert code == 2
        assert err.startswith("error: --output") and out in err

    def test_output_check_creates_and_truncates_nothing(self, capsys,
                                                         tmp_path):
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_text("previous run\n")
        for out in (kept, fresh):
            code, _, _ = run(capsys, "train", "--data", str(tmp_path / "no.csv"),
                             "--label-col", "y", "--sensitive-col", "g",
                             "--output", str(out))
            assert code == 3
        assert kept.read_text() == "previous run\n" and not fresh.exists()

    def test_numerical_error_exits_4(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, _ = run(capsys, "train", "--lr", "1e155", "--decay",
                             "constant", "--epochs", "5", "--aggregator", "erm")
        assert code == 4

    def test_determinism_modulo_timings(self, capsys):
        argv = ("train", "--data", "synth", "--aggregator", "cvar", "--alpha",
                "0.7", "--seed", "3", "--epochs", "30")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert strip_timings(a) == strip_timings(b)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        code, out, _ = run(capsys, "train", "--epochs", "10", "--output",
                           str(out_path))
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["config"]["aggregator"].startswith("cvar")

    def test_csv_end_to_end(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["x1,x2,grp,label"]
        for _ in range(60):
            g = rng.integers(0, 2)
            y = rng.choice(["pos", "neg"])
            x1 = rng.normal() + (1.0 if y == "pos" else -1.0)
            rows.append(f"{x1:.4f},{rng.normal():.4f},g{g},{y}")
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "train", "--data", str(path),
                           "--label-col", "label", "--sensitive-col", "grp",
                           "--positive-token", "pos", "--epochs", "30")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["train"]["final_subgroup_risks"]["values"]) == 2

    def test_topk_requires_k(self, capsys):
        code, _, err = run(capsys, "train", "--aggregator", "topk",
                           "--epochs", "5")
        assert code == 2
        assert "--k" in err

    def test_topk_artifact_names_the_partition_it_trained_on(self, capsys):
        code, out, _ = run(capsys, "train", "--aggregator", "topk", "--k", "37",
                           "--epochs", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["partition_mode"] == "per_instance"
        assert len(doc["train"]["final_subgroup_risks"]["values"]) == 320
        # evaluated on the data's two sensitive groups
        assert len(doc["evaluation"]["test"]["subgroup_zero_one"]) == 2

    def test_real_sensitive_csv_trains_per_instance(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        rows = ["x1,income,label"]
        for _ in range(40):
            y = rng.choice(["pos", "neg"])
            x1 = rng.normal() + (1.0 if y == "pos" else -1.0)
            rows.append(f"{x1:.4f},{rng.uniform(10, 90):.2f},{y}")
        path = tmp_path / "real.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "train", "--data", str(path),
                           "--label-col", "label", "--sensitive-col", "income",
                           "--positive-token", "pos", "--sensitive-kind",
                           "real", "--epochs", "20", "--train-frac", "0.75")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["partition_mode"] == "per_instance"
        # one singleton group per training row
        assert len(doc["train"]["final_subgroup_risks"]["values"]) == \
            len(doc["train"]["final_subgroup_risks"]["probs"])

    def test_non_finite_real_sensitive_value_exits_3(self, capsys, tmp_path):
        # accepted before, and the artifact then held "covariance": NaN
        path = tmp_path / "real.csv"
        path.write_text("a,s,label\n1,0.5,1\n2,nan,0\n2,1,0\n3,inf,1\n")
        code, out, err = run(capsys, "train", "--data", str(path),
                             "--label-col", "label", "--sensitive-col", "s",
                             "--sensitive-kind", "real", "--exclude-sensitive")
        assert (code, out) == (3, "")
        assert err == (f"error: {path}: row 3, column 's': 'nan' is not a "
                       f"finite number\n")


class TestSweepCommand:
    def test_rows_and_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alphas", "0.1,0.5,0.9",
                           "--epochs", "25", "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            assert float(cells[0]) in (0.1, 0.5, 0.9)

    def test_rows_sorted_by_alpha(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alphas", "0.9,0.1", "--epochs",
                           "10")
        assert code == 0
        alphas = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert alphas == sorted(alphas)

    def test_bad_alpha_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--alphas", "0.5,2.0", "--epochs",
                         "5")
        assert code == 2

    def test_partial_failure_flushes_rows_and_exits_4(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, "sweep", "--alphas", "0.2,0.8",
                               "--lr", "1e155", "--decay", "constant",
                               "--epochs", "5")
        assert code == 4
        assert out.startswith(SWEEP_HEADER)

    def test_sweep_shows_tradeoff_direction(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alphas", "0.1,0.9", "--epochs",
                           "150", "--seed", "4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        risk = {float(r[0]): float(r[1]) for r in rows}
        gap = {float(r[0]): float(r[2]) for r in rows}
        assert gap[0.9] < gap[0.1]
        assert risk[0.9] > risk[0.1]


class TestAxiomsCommand:
    def test_cvar_fairness_all_pass(self, capsys):
        code, out, _ = run(capsys, "axioms", "--measure", "cvar:0.7",
                           "--suite", "fairness", "--trials", "200", "--seed",
                           "0")
        assert code == 0
        doc = json.loads(out)
        for ax in ("F1", "F2", "F3", "F5", "F6", "F7", "F8", "F9"):
            assert doc["axioms"][ax]["passed"], ax
        assert doc["mismatches"] == []

    def test_sd_fairness_reports_monotonicity_failure(self, capsys):
        code, out, _ = run(capsys, "axioms", "--measure", "sd:1.0",
                           "--suite", "fairness", "--trials", "500", "--seed",
                           "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["axioms"]["F3"]["passed"] is False
        assert doc["axioms"]["F3"]["counterexample"] is not None
        assert doc["axioms"]["F1"]["passed"] is True

    def test_expectation_not_averse(self, capsys):
        code, out, _ = run(capsys, "axioms", "--measure", "expectation",
                           "--suite", "fairness", "--trials", "200")
        assert code == 0
        doc = json.loads(out)
        assert doc["axioms"]["F6"]["passed"] is False

    def test_inequality_suite_cv(self, capsys):
        code, out, _ = run(capsys, "axioms", "--measure", "sd:1.0",
                           "--suite", "inequality", "--trials", "300")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["axioms"]) == {"I1", "I2", "I3", "I4", "I5", "I6", "I7",
                                      "I11"}
        assert all(rep["passed"] for rep in doc["axioms"].values())

    def test_inequality_suite_cvar_strict_ties(self, capsys):
        code, out, _ = run(capsys, "axioms", "--measure", "cvar:0.6",
                           "--suite", "inequality", "--trials", "500")
        assert code == 0
        doc = json.loads(out)
        assert doc["axioms"]["I3"]["passed"] is False
        assert doc["axioms"]["I5"]["passed"] is True

    def test_unknown_measure_exits_2(self, capsys):
        code, _, _ = run(capsys, "axioms", "--measure", "gini", "--trials",
                         "10")
        assert code == 2

    def test_unexpected_result_exits_5(self, capsys):
        # with 2 trials the seeded search misses the known monotonicity
        # counterexample, which deviates from the expectation table
        code, out, _ = run(capsys, "axioms", "--measure", "sd:1.0",
                           "--suite", "fairness", "--trials", "2", "--seed",
                           "1")
        assert code == 5
        doc = json.loads(out)
        assert "F3" in doc["mismatches"]

    def test_seeded_reproducibility(self, capsys):
        argv = ("axioms", "--measure", "cvar:0.8", "--trials", "100", "--seed",
                "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


@pytest.mark.parametrize("argv", [("train",), ("train", "--train-frac", "1"),
                                  ("sweep", "--alphas", "0.2,0.8")])
def test_unsplit_dataset_released_before_training(capsys, monkeypatch, argv):
    # only the standardized train and test sets stay alive while training
    load_dataset, train = cli._load_dataset, cli.train
    loaded = []

    def load(args):
        dataset = load_dataset(args)
        loaded.append(weakref.ref(dataset))
        return dataset

    def checked_train(config, dataset):
        assert loaded[0]() is None
        return train(config, dataset)

    monkeypatch.setattr(cli, "_load_dataset", load)
    monkeypatch.setattr(cli, "train", checked_train)
    code, _, _ = run(capsys, *argv, "--epochs", "2")
    assert code == 0
