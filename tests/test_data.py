"""Tests for the synthetic dataset generators and their seeded splits."""

import numpy as np
import pytest

from curvact.data import Dataset, GeneratorSpec, make_dataset


class TestGeneratorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec("spirals")

    def test_moons_default_noise(self):
        spec = GeneratorSpec("two_moons")
        assert spec.noise == 0.1

    def test_json_null_takes_the_default(self):
        assert (GeneratorSpec.from_dict({"kind": "two_moons", "noise": None})
                == GeneratorSpec("two_moons", noise=0.1))
        assert (GeneratorSpec.from_dict({"kind": "circles", "noise": None, "ratio": None})
                == GeneratorSpec("circles", noise=0.1, ratio=0.5))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            GeneratorSpec("two_moons", noise=-0.1)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            GeneratorSpec("two_moons", noise=float("nan"))

    def test_moons_reject_separation(self):
        with pytest.raises(ValueError, match="separation"):
            GeneratorSpec("two_moons", noise=0.1, separation=2.0)

    def test_moons_reject_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            GeneratorSpec("two_moons", noise=0.1, ratio=0.5)

    def test_circles_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                GeneratorSpec("circles", noise=0.1, ratio=bad)

    def test_blobs_separation_positive(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError, match="separation"):
                GeneratorSpec("gaussian_blobs", separation=bad)

    def test_blobs_reject_noise(self):
        with pytest.raises(ValueError, match="noise"):
            GeneratorSpec("gaussian_blobs", noise=0.1, separation=4.0)

    def test_json_round_trip_moons(self):
        spec = GeneratorSpec("two_moons", noise=0.22)
        data = spec.to_dict()
        assert data == {"kind": "two_moons", "noise": 0.22}
        assert GeneratorSpec.from_dict(data) == spec

    def test_json_round_trip_circles(self):
        spec = GeneratorSpec("circles", noise=0.05, ratio=0.4)
        data = spec.to_dict()
        assert data == {"kind": "circles", "noise": 0.05, "ratio": 0.4}
        assert GeneratorSpec.from_dict(data) == spec

    def test_json_round_trip_blobs(self):
        spec = GeneratorSpec("gaussian_blobs", separation=6.0)
        data = spec.to_dict()
        assert data == {"kind": "gaussian_blobs", "separation": 6.0}
        assert GeneratorSpec.from_dict(data) == spec

    def test_from_dict_rejects_extras(self):
        with pytest.raises(ValueError, match="unexpected"):
            GeneratorSpec.from_dict({"kind": "two_moons", "noise": 0.1, "scale": 2.0})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="kind"):
            GeneratorSpec.from_dict(["two_moons"])


class TestMakeDataset:
    def test_deterministic(self):
        a = make_dataset(GeneratorSpec("two_moons", noise=0.2), 120, 5)
        b = make_dataset(GeneratorSpec("two_moons", noise=0.2), 120, 5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_seed_changes_data(self):
        a = make_dataset(GeneratorSpec("two_moons", noise=0.2), 120, 5)
        b = make_dataset(GeneratorSpec("two_moons", noise=0.2), 120, 6)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="at least 4"):
            make_dataset(GeneratorSpec("two_moons"), 3, 0)

    def test_labels_are_plus_minus_one(self):
        ds = make_dataset(GeneratorSpec("circles"), 101, 3)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}

    def test_classes_balanced_within_one(self):
        for n in (100, 101):
            ds = make_dataset(GeneratorSpec("gaussian_blobs"), n, 1)
            n_pos = int(np.sum(ds.labels == 1.0))
            n_neg = int(np.sum(ds.labels == -1.0))
            assert abs(n_pos - n_neg) <= 1
            assert n_pos + n_neg == n

    def test_split_fractions(self):
        ds = make_dataset(GeneratorSpec("two_moons"), 250, 9)
        assert ds.train_idx.shape[0] == 200
        assert ds.test_idx.shape[0] == 50

    def test_split_partitions_indices(self):
        ds = make_dataset(GeneratorSpec("two_moons"), 60, 4)
        combined = np.sort(np.concatenate([ds.train_idx, ds.test_idx]))
        np.testing.assert_array_equal(combined, np.arange(60))

    def test_split_views_match_indices(self):
        ds = make_dataset(GeneratorSpec("two_moons"), 40, 11)
        np.testing.assert_array_equal(ds.x_train, ds.inputs[ds.train_idx])
        np.testing.assert_array_equal(ds.y_test, ds.labels[ds.test_idx])

    def test_zero_noise_moons_on_canonical_arcs(self):
        ds = make_dataset(GeneratorSpec("two_moons", noise=0.0), 200, 2)
        pos = ds.inputs[ds.labels == 1.0]
        neg = ds.inputs[ds.labels == -1.0]
        # Upper arc: unit circle around the origin, y >= 0.
        np.testing.assert_allclose(np.hypot(pos[:, 0], pos[:, 1]), 1.0, atol=1e-12)
        assert np.all(pos[:, 1] >= -1e-12)
        # Lower arc: unit circle around (1, 0.5), y <= 0.5.
        np.testing.assert_allclose(
            np.hypot(neg[:, 0] - 1.0, neg[:, 1] - 0.5), 1.0, atol=1e-12
        )
        assert np.all(neg[:, 1] <= 0.5 + 1e-12)

    def test_zero_noise_circles_radii(self):
        ds = make_dataset(GeneratorSpec("circles", noise=0.0, ratio=0.5), 200, 2)
        pos = ds.inputs[ds.labels == 1.0]
        neg = ds.inputs[ds.labels == -1.0]
        np.testing.assert_allclose(np.hypot(pos[:, 0], pos[:, 1]), 0.5, atol=1e-12)
        np.testing.assert_allclose(np.hypot(neg[:, 0], neg[:, 1]), 1.0, atol=1e-12)

    def test_blob_centers(self):
        ds = make_dataset(GeneratorSpec("gaussian_blobs", separation=8.0), 2000, 0)
        pos = ds.inputs[ds.labels == 1.0]
        neg = ds.inputs[ds.labels == -1.0]
        np.testing.assert_allclose(pos.mean(axis=0), [4.0, 0.0], atol=0.15)
        np.testing.assert_allclose(neg.mean(axis=0), [-4.0, 0.0], atol=0.15)

    def test_generator_and_seed_recorded(self):
        spec = GeneratorSpec("two_moons", noise=0.3)
        ds = make_dataset(spec, 50, 13)
        assert ds.generator == spec
        assert ds.seed == 13

    def test_blobs_linear_probe(self):
        # Well-separated blobs are nearly linearly separable, so an ordinary
        # least-squares probe fit on the train split must nail the test split.
        ds = make_dataset(GeneratorSpec("gaussian_blobs", separation=6.0), 1000, 0)
        design = np.column_stack([ds.x_train, np.ones(ds.x_train.shape[0])])
        coef, *_ = np.linalg.lstsq(design, ds.y_train, rcond=None)
        pred = np.sign(np.column_stack([ds.x_test, np.ones(ds.x_test.shape[0])]) @ coef)
        accuracy = float(np.mean(pred == ds.y_test))
        assert accuracy >= 0.99
