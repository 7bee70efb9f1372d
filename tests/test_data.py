"""Unit tests for ingestion, the synthetic benchmark, splitting, scaling."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_codes

from grouprisk import (AggregatorSpec, CsvSchema, Dataset, IngestionError,
                       InputError, LossSpec, ParameterError, SynthSpec, TrainConfig,
                       Scaler, generate_synth, load_csv, partition, split,
                       standardize, train)
from grouprisk.metrics import evaluate
from grouprisk.subgroup import first_appearance


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SCHEMA = CsvSchema(label_column="outcome", sensitive_column="grp",
                   positive_label_token="yes")


class TestLoadCsv:
    def test_label_mapping(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1.0,m,yes\n2.0,f,no\n3.0,m,yes\n")
        ds = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])

    def test_sensitive_codes_first_appearance(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1,z,yes\n2,b,no\n3,z,yes\n")
        ds = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(ds.sensitive, [0, 1, 0])

    def test_sensitive_kept_as_feature_one_hot(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1,m,yes\n2,f,no\n")
        ds = load_csv(path, SCHEMA)
        # numeric column a plus one-hot of grp
        np.testing.assert_allclose(ds.features,
                                   [[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])

    def test_sensitive_excluded_with_flag(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1,m,yes\n2,f,no\n")
        schema = CsvSchema(label_column="outcome", sensitive_column="grp",
                           positive_label_token="yes", include_sensitive=False)
        ds = load_csv(path, schema)
        np.testing.assert_allclose(ds.features, [[1.0], [2.0]])

    def test_real_sensitive(self, tmp_path):
        path = write(tmp_path,
                     "a,weight,outcome\n1,100.5,yes\n2,93.2,no\n3,100.5,yes\n")
        schema = CsvSchema(label_column="outcome", sensitive_column="weight",
                           positive_label_token="yes", sensitive_kind="real")
        ds = load_csv(path, schema)
        np.testing.assert_allclose(ds.sensitive, [100.5, 93.2, 100.5])
        part = partition(ds, "per_instance")
        assert part.n == 3

    def test_real_sensitive_unparseable(self, tmp_path):
        schema = CsvSchema(label_column="outcome", sensitive_column="weight",
                           positive_label_token="yes", sensitive_kind="real")
        path = write(tmp_path, "a,weight,outcome\n1,heavy,yes\n")
        with pytest.raises(IngestionError, match="weight"):
            load_csv(path, schema)
        # data row i is file row i + 2 (the header is row 1)
        rows = ["1,heavy,yes" if i == 4998 else "1,70.5,no" for i in range(6000)]
        path = write(tmp_path, "a,weight,outcome\n" + "\n".join(rows) + "\n",
                     name="deep.csv")
        with pytest.raises(IngestionError, match=r"row 5000, column 'weight'"):
            load_csv(path, schema)

    def test_text_feature_one_hot_first_appearance(self, tmp_path):
        path = write(tmp_path,
                     "color,grp,outcome\nred,m,yes\nblue,f,no\nred,m,no\n")
        ds = load_csv(path, SCHEMA)
        np.testing.assert_allclose(ds.features[:, :2],
                                   [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        # a level first seen deep in the file takes the last column
        colors = ["red", "blue"] * 2000 + ["green"] + ["red"] * 10
        rows = "\n".join(f"{c},m,yes" for c in colors)
        path = write(tmp_path, "color,grp,outcome\n" + rows + "\n",
                     name="deep.csv")
        ds = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(ds.features[:, 2],
                                      [c == "green" for c in colors])
        np.testing.assert_array_equal(ds.features[:, :3].sum(axis=1), 1.0)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "a,a,outcome\n1,2,yes\n")
        with pytest.raises(IngestionError, match="duplicate"):
            load_csv(path, SCHEMA)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a,outcome\n1,yes\n")
        with pytest.raises(IngestionError, match="grp"):
            load_csv(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(IngestionError, match="empty"):
            load_csv(path, SCHEMA)

    def test_no_rows(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n")
        with pytest.raises(IngestionError, match="no data rows"):
            load_csv(path, SCHEMA)

    def test_missing_value_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1,m,yes\n,f,no\n")
        with pytest.raises(IngestionError, match=r"row 3.*'a'"):
            load_csv(path, SCHEMA)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,grp,outcome\n1,m\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path, SCHEMA)

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path,
                     'a,grp,outcome\n1,"north, east",yes\n2,"south",no\n')
        ds = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(ds.sensitive, [0, 1])

    def test_numeric_round_trip(self, tmp_path):
        tokens = ["1.25", "-3.5", "0.1", "1e3", "7"]
        rows = "\n".join(f"{t},m,yes" for t in tokens)
        path = write(tmp_path, "a,grp,outcome\n" + rows + "\n")
        ds = load_csv(path, CsvSchema(label_column="outcome",
                                      sensitive_column="grp",
                                      positive_label_token="yes",
                                      include_sensitive=False))
        np.testing.assert_array_equal(ds.features[:, 0],
                                      [float(t) for t in tokens])

    def test_combined_sensitive_key(self, tmp_path):
        path = write(tmp_path,
                     "a,g1,g2,outcome\n1,m,x,yes\n2,m,y,no\n3,f,x,yes\n")
        schema = CsvSchema(label_column="outcome", sensitive_column=("g1", "g2"),
                           positive_label_token="yes")
        ds = load_csv(path, schema)
        np.testing.assert_array_equal(ds.sensitive, [0, 1, 2])
        # beside a text feature: its one-hot, then the combined key's
        path = write(tmp_path,
                     "color,g1,g2,outcome\nred,m,x,yes\nblue,m,y,no\n"
                     "red,f,x,yes\nblue,m,x,no\n", name="text.csv")
        ds = load_csv(path, schema)
        np.testing.assert_array_equal(ds.sensitive, [0, 1, 2, 0])
        np.testing.assert_array_equal(ds.features,
                                      [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
                                       [1, 0, 0, 0, 1], [0, 1, 1, 0, 0]])


class TestGenerateSynth:
    def test_deterministic(self):
        spec = SynthSpec(m=100, seed=42)
        a, b = generate_synth(spec), generate_synth(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.sensitive, b.sensitive)

    def test_seed_changes_draw(self):
        a = generate_synth(SynthSpec(m=100, seed=1))
        b = generate_synth(SynthSpec(m=100, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_groups(self):
        ds = generate_synth(SynthSpec(m=250, seed=0))
        assert ds.features.shape == (250, 2)
        assert set(np.unique(ds.sensitive)) <= {0, 1}

    def test_noiseless_separable_is_learnable(self):
        spec = SynthSpec(m=200, noise_rates=(0.0, 0.0),
                         class_means=(((-2.0, 0.0), (2.0, 0.0)),
                                      ((-2.0, 0.0), (2.0, 0.0))),
                         seed=5)
        ds = generate_synth(spec)
        cfg = TrainConfig(aggregator=AggregatorSpec.expectation(),
                          loss=LossSpec("squared_hinge"), epochs=150,
                          step_size=0.5)
        report = train(cfg, ds)
        ev = evaluate(report.model, ds, partition(ds), LossSpec("zero_one"))
        assert ev.zero_one_risk < 0.05

    def test_default_benchmark_has_subgroup_gap(self):
        gaps = []
        for seed in range(10):
            ds = generate_synth(SynthSpec(seed=seed))
            cfg = TrainConfig(aggregator=AggregatorSpec.expectation(),
                              loss=LossSpec("squared_hinge"), epochs=150,
                              step_size=0.5)
            report = train(cfg, ds)
            ev = evaluate(report.model, ds, partition(ds), LossSpec("zero_one"))
            errs = list(ev.subgroup_zero_one.values())
            gaps.append(abs(errs[0] - errs[1]))
        assert float(np.mean(gaps)) > 0.05

    def test_validation(self):
        with pytest.raises(ParameterError):
            SynthSpec(group_fractions=(0.7, 0.7))
        with pytest.raises(ParameterError):
            SynthSpec(noise_rates=(0.0, 0.6))


def reference_split(dataset, train_fraction, seed=0):
    """Per-row dict-of-lists stratified split that ``split`` must reproduce."""
    rng = np.random.default_rng(seed)
    m = dataset.m
    target = min(max(int(round(train_fraction * m)), 1), m - 1)
    strata = {}
    for i, k in enumerate(zip(dataset.labels.tolist(),
                              dataset.sensitive.tolist())):
        strata.setdefault(k, []).append(i)
    if not all(len(v) >= 2 for v in strata.values()):
        perm = rng.permutation(m)
        return perm[:target], perm[target:], False
    quotas = []
    for k in sorted(strata, key=repr):
        idx = np.array(strata[k])
        share = train_fraction * idx.size
        quotas.append([idx, int(np.floor(share)), share - np.floor(share)])
    remainder = target - sum(q[1] for q in quotas)
    for q in sorted(quotas, key=lambda q: -q[2])[:max(remainder, 0)]:
        q[1] += 1
    train_idx, test_idx = [], []
    for idx, take, _ in quotas:
        perm = idx[rng.permutation(idx.size)]
        train_idx.extend(perm[:take].tolist())
        test_idx.extend(perm[take:].tolist())
    return sorted(train_idx), sorted(test_idx), True


class TestSplit:
    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        synth = generate_synth(SynthSpec(m=403, seed=1))
        m = 997
        five = Dataset(rng.normal(size=(m, 2)), rng.choice([-1.0, 1.0], m),
                       rng.choice(5, m, p=[0.5, 0.2, 0.15, 0.1, 0.05]))
        real = Dataset(rng.normal(size=(m, 1)), rng.choice([-1.0, 1.0], m),
                       np.round(rng.uniform(40.0, 120.0, m), 1))
        for ds in (synth, five, real):
            for frac in (0.8, 0.37, 0.33, 0.71):
                for seed in (0, 5):
                    res = split(ds, frac, seed=seed)
                    train_idx, test_idx, stratified = reference_split(ds, frac,
                                                                      seed)
                    assert res.stratified == stratified
                    for got, idx in ((res.train, train_idx),
                                     (res.test, test_idx)):
                        want = ds.take(np.asarray(idx, dtype=int))
                        np.testing.assert_array_equal(got.features, want.features)
                        np.testing.assert_array_equal(got.labels, want.labels)
                        np.testing.assert_array_equal(got.sensitive,
                                                      want.sensitive)
        assert split(five, 0.8).stratified and not split(real, 0.8).stratified

    def test_sizes(self):
        ds = generate_synth(SynthSpec(m=100, seed=0))
        res = split(ds, 0.8, seed=1)
        assert abs(res.train.m - 80) <= 1
        assert res.train.m + res.test.m == 100

    def test_stratification_preserves_cells(self):
        ds = generate_synth(SynthSpec(m=400, seed=0))
        res = split(ds, 0.75, seed=3)
        assert res.stratified
        for y in (-1.0, 1.0):
            for g in (0, 1):
                full = np.sum((ds.labels == y) & (ds.sensitive == g))
                got = np.sum((res.train.labels == y) & (res.train.sensitive == g))
                assert abs(got - 0.75 * full) <= 1.0

    def test_fallback_flag_on_tiny_cells(self):
        ds = Dataset(np.ones((3, 1)), np.array([1.0, -1.0, 1.0]),
                     np.array([0, 0, 1]))
        res = split(ds, 0.67, seed=0)
        assert not res.stratified
        assert res.train.m + res.test.m == 3

    def test_rejects_bad_fraction(self):
        ds = generate_synth(SynthSpec(m=20, seed=0))
        with pytest.raises(ParameterError):
            split(ds, 1.0)

    def test_one_row_names_the_empty_side(self):
        ds = Dataset(np.ones((1, 1)), np.array([1.0]), np.array([0]))
        with pytest.raises(InputError, match="leaves one side of a 1-row split"):
            split(ds, 0.8)

    def test_deterministic(self):
        ds = generate_synth(SynthSpec(m=100, seed=0))
        a = split(ds, 0.8, seed=9)
        b = split(ds, 0.8, seed=9)
        np.testing.assert_array_equal(a.train.features, b.train.features)


def assert_split_is_reference(sensitive, seeds=(0, 5)):
    """``split`` of a dataset with these sensitive values gives the rows,
    and the stratified flag, of ``reference_split``; returns the train rows
    of each (fraction, seed)."""
    m = sensitive.size
    rng = np.random.default_rng(m)
    ds = Dataset(np.arange(m, dtype=float)[:, None], rng.choice([-1.0, 1.0], m),
                 sensitive)
    trains = []
    for frac in (0.8, 0.37, 0.71):
        for seed in seeds:
            res = split(ds, frac, seed=seed)
            train_idx, test_idx, stratified = reference_split(ds, frac, seed)
            assert res.stratified == stratified
            for got, idx in ((res.train, train_idx), (res.test, test_idx)):
                np.testing.assert_array_equal(got.features[:, 0], idx)
                np.testing.assert_array_equal(got.sensitive, sensitive[idx])
            trains.append(res.train.features[:, 0])
    return trains


class TestSplitEdges:
    """Sensitive dtypes and values that the grouping must code exactly."""

    @pytest.mark.parametrize("levels", [
        [-7, -3, -5],
        [2**63 - 1, -2**63, 0, -2**63 + 1],
        [2**63 - 1, 2**63 - 2],
        [-2**63, -2**63 + 2],
        np.array([0, 200, 255], dtype=np.uint8),
        np.array([2**64 - 1, 1], dtype=np.uint64),
        [True, False],
        [np.inf, -np.inf, 1.0],
        [1.5, -2.25, 7.0],
        ["north", "south", "east"],
    ])
    def test_levels_match_reference(self, levels):
        levels = np.asarray(levels)
        rng = np.random.default_rng(levels.size)
        sensitive = levels[rng.integers(0, levels.size, 301)]
        assert_split_is_reference(sensitive)
        assert split(Dataset(np.ones((301, 1)), np.ones(301), sensitive),
                     0.8).stratified

    def test_sign_of_the_first_zero_orders_the_strata(self):
        # the strata are visited in repr order of their (label, value)
        # keys, and '-0.0' sorts before '-1.0' while '0.0' sorts after it
        rng = np.random.default_rng(4)
        base = rng.choice([0.0, -1.0, 2.0], 240)
        zeros = np.flatnonzero(base == 0.0)
        first_neg, first_pos = base.copy(), base.copy()
        first_neg[zeros[0]] = -0.0
        first_pos[zeros[1:]] = -0.0
        a = assert_split_is_reference(first_neg)
        b = assert_split_is_reference(first_pos)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_benchmark_csv_strata_at_workload_scale(self, tmp_path,
                                                    monkeypatch):
        # the (label, region) strata of the csv_train benchmark's file
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import workloads
        path = tmp_path / "train.csv"
        workloads.write_csv(str(path), workloads.CsvTrain.ROWS, 1)
        ds = load_csv(path, workloads.CsvTrain.SCHEMA)
        groups, _ = first_appearance(ds.sensitive)
        codes, first = first_appearance(2 * groups + (ds.labels > 0.0))
        expected_codes, expected_keys = reference_codes(
            list(zip(ds.labels.tolist(), ds.sensitive.tolist())))
        np.testing.assert_array_equal(codes, expected_codes)
        assert list(zip(ds.labels[first].tolist(),
                        ds.sensitive[first].tolist())) == expected_keys
        assert len(expected_keys) == 10

    def test_nan_falls_back_to_a_plain_shuffle(self):
        # no NaN equals another, so each NaN row is a stratum of one
        rng = np.random.default_rng(6)
        for nans in ([5], [5, 17], [0, 1, 2]):
            sensitive = rng.choice([0.0, 1.0], 200)
            sensitive[nans] = np.nan
            assert_split_is_reference(sensitive)
            assert not split(Dataset(np.ones((200, 1)), np.ones(200), sensitive),
                             0.8).stratified


class TestStandardize:
    def test_train_moments(self):
        ds = generate_synth(SynthSpec(m=150, seed=2))
        res = split(ds, 0.8, seed=0)
        tr, te, scaler = standardize(res.train, res.test)
        assert np.all(np.abs(tr.features.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(tr.features.std(axis=0) - 1.0) < 1e-10)
        assert te.m == res.test.m

    def test_zero_variance_column_untouched(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        ds = Dataset(X, np.array([1.0, -1.0, 1.0]), np.array([0, 1, 0]))
        tr, _, _ = standardize(ds)
        np.testing.assert_array_equal(tr.features[:, 1], [5.0, 5.0, 5.0])

    def test_idempotent_on_standardized_data(self):
        ds = generate_synth(SynthSpec(m=150, seed=2))
        tr, _, _ = standardize(ds)
        tr2, _, _ = standardize(tr)
        assert np.max(np.abs(tr2.features - tr.features)) < 1e-10

    def test_scaler_applies_train_statistics(self):
        ds = generate_synth(SynthSpec(m=80, seed=4))
        _, _, scaler = standardize(ds)
        manual = (ds.features - scaler.mean) / scaler.scale
        tr, _, _ = standardize(ds)
        np.testing.assert_array_equal(tr.features, manual)

    def test_inputs_untouched_and_read_only_accepted(self):
        ds = generate_synth(SynthSpec(m=120, seed=6))
        train_ds, test_ds, _ = split(ds, 0.7, seed=1)
        expected = standardize(train_ds, test_ds)
        before = [d.features.copy() for d in (train_ds, test_ds)]
        for d in (train_ds, test_ds):
            d.features.flags.writeable = False
        got = standardize(train_ds, test_ds)
        for a, b in zip(got[:2], expected[:2]):
            assert a.features.tobytes() == b.features.tobytes()
        out = got[2].transform(test_ds.features)
        assert out.tobytes() == expected[1].features.tobytes()
        for d, copy in zip((train_ds, test_ds), before):
            assert d.features.tobytes() == copy.tobytes()

    def test_transform_allocates_only_its_output(self):
        X = np.random.default_rng(3).normal(size=(20_000, 12))
        scaler = Scaler(X.mean(axis=0), X.std(axis=0))
        tracemalloc.start()
        try:
            out = scaler.transform(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == ((X - scaler.mean) / scaler.scale).tobytes()
        assert peak <= 1.1 * out.nbytes
