"""Golden outputs: the CLI's canonical output per case, pinned by SHA-256.

Each case runs ``grouprisk`` in-process.  Its canonical output is the
exit code, stdout (a JSON document re-dumped with sorted keys and without
``timings``, or the sweep CSV as printed) and the stderr lines that carry
``error:``.  ``golden_digests.json`` holds one SHA-256 per case.  The
digests pin the numpy and BLAS build they were made with: regenerate them
only after an environment change, and name any case whose digest a code
change alters.

    python tests/test_golden.py --print CASE...   # canonical outputs
    python tests/test_golden.py --digests         # digests as JSON

Run from the repository root with ``src`` on the path; printing the
outputs of a checkout of another commit shows what changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from grouprisk.cli import main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_digests.json")

# Fixed files, written by ``write_files`` into the working directory.
CSV = "golden.csv"          # text feature, categorical and real sensitive
ONE_ROW = "one_row.csv"
RAGGED = "ragged.csv"
DUPES = "dupes.csv"
EMPTY = "empty.csv"
HEADER_ONLY = "header_only.csv"
BAD_REAL = "bad_real.csv"


def write_files(directory):
    rng = np.random.default_rng(7)
    rows = ["x1,color,grp,income,label"]
    for _ in range(240):
        g = int(rng.integers(0, 3))
        y = "pos" if rng.random() < 0.4 + 0.15 * g else "neg"
        x1 = rng.normal() + (0.8 if y == "pos" else -0.8) + 0.3 * g
        color = ("red", "blue", "green")[int(rng.integers(0, 3))]
        income = rng.uniform(10.0, 90.0)
        rows.append(f"{x1:.5f},{color},g{g},{income:.3f},{y}")
    files = {
        CSV: "\n".join(rows) + "\n",
        ONE_ROW: "x1,grp,label\n0.5,a,pos\n",
        RAGGED: "x1,grp,label\n0.5,a,pos\n0.7,b\n",
        DUPES: "x1,x1,label\n0.5,a,pos\n",
        EMPTY: "",
        HEADER_ONLY: "x1,grp,label\n",
        BAD_REAL: "x1,income,label\n0.5,12.5,pos\n0.7,rich,neg\n",
    }
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_flags(sensitive="grp", *extra):
    return ("--data", CSV, "--label-col", "label", "--sensitive-col", sensitive,
            "--positive-token", "pos", *extra)


_AGGREGATORS = {
    "erm": ("--aggregator", "erm"),
    "cvar": ("--aggregator", "cvar", "--alpha", "0.8"),
    "sd": ("--aggregator", "sd", "--lambda", "0.5"),
    "topk": ("--aggregator", "topk", "--k", "37"),
    "max": ("--aggregator", "max"),
}


def cases() -> dict:
    """Case name -> argv."""
    out = {}
    for agg, flags in _AGGREGATORS.items():
        for loss in ("hinge", "squared_hinge", "logistic"):
            out[f"train_{agg}_{loss}"] = ("train", *flags, "--loss", loss,
                                          "--epochs", "30", "--seed", "1")
    # 320 of the 400 synthetic rows train: top_k at k = m is the mean
    out["train_topk_k_eq_m"] = ("train", "--aggregator", "topk", "--k", "320",
                                "--loss", "hinge", "--epochs", "30")
    out["train_topk_linear"] = ("train", "--aggregator", "topk", "--k", "100",
                                "--loss", "linear", "--epochs", "20")
    out["train_cvar_linear_constant"] = ("train", "--alpha", "0.5", "--loss",
                                         "linear", "--decay", "constant",
                                         "--lr", "0.05", "--epochs", "20")
    out["train_frac_one"] = ("train", "--train-frac", "1.0", "--epochs", "30",
                             "--seed", "2")
    out["train_csv_text_categorical"] = ("train", *_csv_flags(),
                                         "--epochs", "30")
    out["train_csv_exclude_sensitive"] = ("train", *_csv_flags(
        "grp", "--exclude-sensitive"), "--aggregator", "max", "--epochs", "30")
    out["train_csv_real_sensitive"] = ("train", *_csv_flags(
        "income", "--sensitive-kind", "real"), "--aggregator", "cvar",
        "--alpha", "0.7", "--loss", "hinge", "--epochs", "30")
    out["sweep_synth"] = ("sweep", "--alphas", "0.9,0.1,0.5", "--epochs", "25",
                          "--seed", "2")
    out["sweep_csv_real"] = ("sweep", *_csv_flags(
        "income", "--sensitive-kind", "real"), "--alphas", "0.3,0.8",
        "--loss", "logistic", "--epochs", "20")
    out["axioms_cvar_fairness"] = ("axioms", "--measure", "cvar:0.7",
                                   "--trials", "100")
    out["axioms_sd_fairness"] = ("axioms", "--measure", "sd:2.5", "--trials",
                                 "100", "--seed", "3")
    out["axioms_sd0_fairness"] = ("axioms", "--measure", "sd:0", "--trials",
                                  "100")
    for name, measure in (("expectation", "expectation"), ("cvar", "cvar:0.7"),
                          ("cv", "sd:1.0"), ("sd", "sd:2.5")):
        out[f"axioms_{name}_inequality"] = ("axioms", "--measure", measure,
                                            "--suite", "inequality",
                                            "--trials", "50")
    # failure paths: exit code, the error line, and any partial output
    out["fail_bad_alpha"] = ("train", "--alpha", "1.5", "--epochs", "5")
    out["fail_unknown_flag"] = ("train", "--no-such-flag")
    out["fail_topk_without_k"] = ("train", "--aggregator", "topk")
    out["fail_topk_k_over_m"] = ("train", "--aggregator", "topk", "--k", "321",
                                 "--epochs", "5")
    out["fail_epochs_zero"] = ("train", "--epochs", "0")
    out["fail_train_frac"] = ("train", "--train-frac", "1.5")
    out["fail_csv_without_schema"] = ("train", "--data", CSV)
    out["fail_missing_column"] = ("train", *_csv_flags("nope"))
    out["fail_bad_real_cell"] = ("train", "--data", BAD_REAL, "--label-col",
                                 "label", "--sensitive-col", "income",
                                 "--positive-token", "pos", "--sensitive-kind",
                                 "real")
    out["fail_ragged_row"] = ("train", "--data", RAGGED, "--label-col", "label",
                              "--sensitive-col", "grp")
    out["fail_duplicate_header"] = ("train", "--data", DUPES, "--label-col",
                                    "label", "--sensitive-col", "x1")
    out["fail_empty_file"] = ("train", "--data", EMPTY, "--label-col", "label",
                              "--sensitive-col", "grp")
    out["fail_no_data_rows"] = ("train", "--data", HEADER_ONLY, "--label-col",
                                "label", "--sensitive-col", "grp")
    out["fail_one_row_split"] = ("train", "--data", ONE_ROW, "--label-col",
                                 "label", "--sensitive-col", "grp")
    out["fail_one_row_bad_flag"] = ("train", "--data", ONE_ROW, "--label-col",
                                    "label", "--sensitive-col", "grp",
                                    "--lr", "-1")
    out["fail_overflow"] = ("train", "--lr", "1e200", "--epochs", "20")
    out["fail_sweep_bad_alpha"] = ("sweep", "--alphas", "0.5,2.0")
    out["fail_sweep_unparsable"] = ("sweep", "--alphas", "0.5,x")
    out["fail_sweep_partial_flush"] = ("sweep", "--alphas", "0.2,0.8", "--lr",
                                       "1e155", "--decay", "constant",
                                       "--epochs", "5")
    out["fail_axioms_unknown_measure"] = ("axioms", "--measure", "gini")
    out["fail_axioms_bad_parameter"] = ("axioms", "--measure", "cvar:abc")
    out["fail_axioms_cvar_alpha"] = ("axioms", "--measure", "cvar:1.5")
    out["fail_axioms_negative_lambda"] = ("axioms", "--measure", "sd:-1")
    out["fail_axioms_unexpected_exit_5"] = ("axioms", "--measure", "sd:1.0",
                                            "--trials", "2", "--seed", "1")
    return out


def canonical(argv) -> str:
    """Exit code, canonical stdout and error lines of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        doc.pop("timings", None)
        stdout = json.dumps(doc, indent=1, sort_keys=True)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    return f"exit {code}\n{stdout}\n" + "\n".join(errors)


def digest(argv) -> str:
    return hashlib.sha256(canonical(argv).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_files(str(directory))
    return directory


@pytest.fixture(scope="module")
def expected():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden(name, workdir, expected, monkeypatch):
    monkeypatch.chdir(workdir)
    assert digest(cases()[name]) == expected[name], (
        f"{name}: print it with `python tests/test_golden.py --print {name}` "
        f"here and at the parent commit, and diff")


def test_every_case_has_a_digest(expected):
    assert sorted(expected) == sorted(cases())


def _main(argv):
    all_cases = cases()
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        if argv[:1] == ["--digests"]:
            print(json.dumps({n: digest(a) for n, a in sorted(all_cases.items())},
                             indent=1, sort_keys=True))
        elif argv[:1] == ["--print"]:
            for name in argv[1:] or sorted(all_cases):
                print(f"== {name}: grouprisk {' '.join(all_cases[name])}")
                print(canonical(all_cases[name]))
        else:
            print(__doc__)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
