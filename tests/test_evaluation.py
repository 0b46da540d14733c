import copy
import csv
import json
import zlib
from dataclasses import replace

import numpy as np
import pytest

from oracles import probe_accuracy_oracle, svm_train_oracle
from recloud import autograd as ag
from recloud import cli
from recloud import evaluation as ev
from recloud.data import (DatasetManifest, SynthSpec, normalize_unit_sphere, read_cloud, resample, stream,
                          synth_generate)
from recloud.geometry import PatchSet, normalize_patches, patchify
from recloud.evaluation import (EpisodeSpec, FeatureTable, fewshot_eval, linear_probe,
                                probe_with_sweep)
from recloud.trainer import (AdamW, TrainConfig, build_model, pretrain, restore,
                             save_checkpoint, snapshot)

CANDIDATES = (0.1, 1.0, 10.0)


def table(features, labels, prefix="r") -> FeatureTable:
    return FeatureTable(ids=[f"{prefix}{i}" for i in range(len(labels))],
                        labels=list(labels), features=features)


def random_tables(seed: int, classes: int, rows: int = 14, dim: int = 6):
    """Overlapping Gaussian classes, every class in both tables."""
    rng = np.random.default_rng(seed)
    labels = [f"c{i % classes}" for i in range(rows + 2 * classes)]
    means = rng.normal(size=(classes, dim))
    x = means[[int(l[1:]) for l in labels]] + rng.normal(size=(len(labels), dim))
    return table(x[:rows], labels[:rows]), table(x[rows:], labels[rows:], prefix="q")


def oracle_sweep(train: FeatureTable, test: FeatureTable, seed: int = 0):
    """``probe_with_sweep``'s split and choice, one scalar solve per class and C,
    scored on the validation rows whose class the fit rows have."""
    order = stream(seed, "sweep").permutation(len(train.ids))
    n_val = max(int(0.2 * len(order)), 1)
    fit = train.select(order[n_val:])
    val = train.select([i for i in order[:n_val] if train.labels[i] in fit.labels])
    accs = [probe_accuracy_oracle(fit.features, fit.labels, val.features, val.labels, c)
            for c in CANDIDATES]
    best = CANDIDATES[int(np.argmax(accs))]
    return probe_accuracy_oracle(train.features, train.labels, test.features, test.labels,
                                 best), best


class TestBatchedSolver:
    """Every column of the batched solver is the one-column solve, up to the
    summation order of the hinge gradient's matrix product."""

    # BLAS may add the rows of a long table in blocks; with OpenBLAS that moves
    # the weights of the 1000 x 256 table (norm ~6) by about 5e-15
    RTOL = ATOL = 1e-12

    @pytest.mark.parametrize("classes,rows,dim", [(2, 14, 6), (3, 14, 6), (4, 14, 6),
                                                  (5, 14, 6), (2, 1000, 256)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_weights_match_oracle(self, seed, classes, rows, dim):
        train, _ = random_tables(seed, classes, rows, dim)
        x = train.features / np.mean(np.linalg.norm(train.features, axis=1))
        names = sorted(set(train.labels))
        y = np.where(np.asarray(train.labels)[:, None] == np.asarray(names), 1.0, -1.0)
        lam = np.repeat(1.0 / (np.asarray(CANDIDATES) * len(x)), classes)
        w, b = ev._svm_train(x, np.tile(y, len(CANDIDATES)), lam, 200)
        assert w.shape == (len(CANDIDATES) * classes, x.shape[1]) and b.shape == lam.shape
        for j in range(len(lam)):
            w1, b1 = svm_train_oracle(x, y[:, j % classes], float(lam[j]), 200)
            np.testing.assert_allclose(w[j], w1, rtol=self.RTOL, atol=self.ATOL)
            np.testing.assert_allclose(b[j], b1, rtol=self.RTOL, atol=self.ATOL)

    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accuracy_and_chosen_c_equal_oracle(self, seed, classes):
        train, test = random_tables(seed, classes, rows=20)
        for c in CANDIDATES:
            assert linear_probe(train, test, regularization=c) == probe_accuracy_oracle(
                train.features, train.labels, test.features, test.labels, c)
        assert probe_with_sweep(train, test) == oracle_sweep(train, test)


class TestProbe:
    def test_separable_table_probes_perfectly(self):
        rng = np.random.default_rng(0)
        centers = 10.0 * np.eye(4, 8)
        labels = [f"c{i % 4}" for i in range(40)]
        x = centers[[i % 4 for i in range(40)]] + 0.1 * rng.normal(size=(40, 8))
        train, test = table(x[:28], labels[:28]), table(x[28:], labels[28:], prefix="q")
        assert linear_probe(train, test) == 1.0
        assert probe_with_sweep(train, test)[0] == 1.0

    def test_common_offset_does_not_hide_separable_classes(self):
        # 4 classes 0.01 apart, each with spread 0.001, all shifted by 100:
        # scaled without centering, every row is nearly one vector
        rng = np.random.default_rng(1)
        labels = [f"c{i % 4}" for i in range(80)]
        x = (100.0 + 0.01 * np.eye(4, 8)[[i % 4 for i in range(80)]]
             + 0.001 * rng.normal(size=(80, 8)))
        train, test = table(x[:60], labels[:60]), table(x[60:], labels[60:], prefix="q")
        assert linear_probe(train, test) == 1.0
        assert probe_with_sweep(train, test)[0] == 1.0
        assert fewshot_eval(table(x, labels), EpisodeSpec(shots=5, queries=10,
                                                          repetitions=3))[0] == 1.0

    def test_rotation_equivariant(self):
        train, test = random_tables(4, 3, rows=24, dim=8)
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(8, 8)))
        centered = train.features - train.features.mean(axis=0)
        scale = np.mean(np.linalg.norm(centered, axis=1))
        names = sorted(set(train.labels))
        y = np.where(np.asarray(train.labels)[:, None] == np.asarray(names), 1.0, -1.0)
        lam = np.full(3, 1.0 / len(train.ids))
        w, b = ev._svm_train(centered / scale, y, lam, 500)
        wq, bq = ev._svm_train(centered @ q / scale, y, lam, 500)
        np.testing.assert_allclose(wq, w @ q, rtol=0, atol=1e-9)
        np.testing.assert_allclose(bq, b, rtol=0, atol=1e-9)
        rotated = (table(train.features @ q, train.labels),
                   table(test.features @ q, test.labels, prefix="q"))
        assert linear_probe(*rotated) == linear_probe(train, test)

    def test_sweep_deterministic(self):
        train, test = random_tables(5, 4, rows=30)
        first = probe_with_sweep(train, test, seed=3)
        assert probe_with_sweep(train, test, seed=3) == first
        assert first[1] in CANDIDATES

    def test_sweep_with_one_fit_class_falls_back_to_c_one(self):
        train = table(np.arange(6.0).reshape(3, 2), ["a", "a", "b"])
        test = table(np.ones((1, 2)), ["a"], prefix="q")
        # with the lone "b" row held out for validation, the fit rows hold one class
        for seed in range(10):
            order = stream(seed, "sweep").permutation(3)
            if train.labels[order[0]] == "b":
                assert probe_with_sweep(train, test, seed=seed)[1] == 1.0
                return
        pytest.fail("no seed puts the lone class in the validation slice")

    def test_sweep_skips_validation_rows_of_classes_without_fit_rows(self):
        # classes of 6, 6 and 1 rows: some seeds hold the lone "c" row out for validation
        rng = np.random.default_rng(0)
        labels = ["a"] * 6 + ["b"] * 6 + ["c"]
        x = rng.normal(size=(13, 4)) + 3.0 * np.eye(3, 4)[[ord(l) - ord("a") for l in labels]]
        train = table(x, labels)
        test = table(x[[0, 6, 12]] + 0.1, ["a", "b", "c"], prefix="q")
        seeds = range(24)
        assert any(12 in stream(seed, "sweep").permutation(13)[:2] for seed in seeds)
        for seed in seeds:
            assert probe_with_sweep(train, test, seed=seed) == oracle_sweep(train, test, seed)

    def test_sweep_with_no_scorable_validation_row_keeps_c_one(self):
        # one validation row, always of the class the two fit rows lack
        train = table(np.eye(3, 2) + 1.0, ["a", "b", "c"])
        test = table(np.ones((1, 2)), ["a"], prefix="q")
        for seed in range(3):
            assert probe_with_sweep(train, test, seed=seed)[1] == 1.0


class TestFeatureCsv:
    def test_plain_fields_are_written_as_they_are(self, tmp_path):
        feats = table(np.array([[0.5, -1e-300], [2.0, 3.25]]), ["a", "b"])
        feats.to_csv(tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text() == (
            "id,label,f_0,f_1\nr0,a,0.5,-1e-300\nr1,b,2.0,3.25\n")

    def test_ids_and_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        x = np.random.default_rng(3).normal(size=(2, 3))
        feats = FeatureTable(ids=['a,b.xyz', 'say "hi".xyz'], labels=['x,"y"', "plain"],
                             features=x)
        feats.to_csv(tmp_path / "f.csv")
        with open(tmp_path / "f.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "label", "f_0", "f_1", "f_2"]
        assert [r[:2] for r in rows[1:]] == [['a,b.xyz', 'x,"y"'], ['say "hi".xyz', "plain"]]
        assert np.array([[float(v) for v in r[2:]] for r in rows[1:]]).tobytes() == x.tobytes()


class TestProbeErrors:
    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_linear_probe_rejects_bad_c(self, c):
        train, test = random_tables(0, 2)
        with pytest.raises(ValueError, match=f"got {c!r}"):
            linear_probe(train, test, regularization=c)

    @pytest.mark.parametrize("c", [0.0, float("nan"), float("inf")])
    def test_sweep_rejects_bad_candidate(self, c):
        train, test = random_tables(0, 2)
        with pytest.raises(ValueError, match=f"got {c!r}"):
            probe_with_sweep(train, test, candidates=(1.0, c))

    def test_linear_probe_table_errors(self):
        train, test = random_tables(0, 3)
        with pytest.raises(ValueError, match="feature dims differ: train 6, test 5"):
            linear_probe(train, table(test.features[:, :5], test.labels))
        with pytest.raises(ValueError, match="at least two classes"):
            linear_probe(table(train.features, ["a"] * len(train.ids)), test)
        with pytest.raises(ValueError, match=r"not seen in training: \['zz'\]"):
            linear_probe(train, table(test.features[:1], ["zz"]))

    def test_fewshot_errors(self):
        rng = np.random.default_rng(0)
        labels = [f"c{i % 3}" for i in range(30)]
        feats = table(rng.normal(size=(30, 4)), labels)
        with pytest.raises(ValueError, match="need 4 classes, table has 3"):
            fewshot_eval(feats, EpisodeSpec(ways=4, shots=2, queries=2))
        with pytest.raises(ValueError, match="fewer than shots\\+queries=12"):
            fewshot_eval(feats, EpisodeSpec(ways=3, shots=6, queries=6))
        with pytest.raises(ValueError, match="got nan"):
            fewshot_eval(feats, EpisodeSpec(ways=3, shots=2, queries=2), regularization=np.nan)
        with pytest.raises(ValueError, match="at least 2 ways"):
            EpisodeSpec(ways=1)
        with pytest.raises(ValueError, match="must be positive"):
            EpisodeSpec(shots=0)

    def test_fewshot_reproducible(self):
        rng = np.random.default_rng(1)
        labels = [f"c{i % 3}" for i in range(30)]
        feats = table(rng.normal(size=(30, 4)) + 3.0 * np.eye(3, 4)[[i % 3 for i in range(30)]],
                      labels)
        spec = EpisodeSpec(ways=3, shots=3, queries=4, repetitions=3, seed=2)
        mean, std, accs = fewshot_eval(feats, spec)
        assert fewshot_eval(feats, spec) == (mean, std, accs)
        assert len(accs) == 3 and all(0.0 <= a <= 1.0 for a in accs)


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(encoder="transformer", epochs=1, num_points=64, num_patches=8, patch_size=8,
                feature_dim=16, encoder_depth=2, decoder_depth=1, num_heads=2, ffn_mult=2,
                pe_hidden=16, token_hidden=16, fc_hidden=32, fold_hidden=16, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def probe_setup(tmp_path_factory):
    """A random-init checkpoint and a manifest of 128-point clouds."""
    root = tmp_path_factory.mktemp("probe")
    manifest = synth_generate(SynthSpec(samples_per_family=5, points_per_cloud=128, seed=2),
                              root / "data")
    cfg = tiny_cfg()
    model = build_model(cfg)
    ckpt = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
    save_checkpoint(ckpt, root / "init.ckpt")
    return root, manifest, ckpt


class TestExtraction:
    def test_one_generator_per_cloud(self, probe_setup, monkeypatch):
        # resample shrinks 128 points to 64 by FPS; patchify's FPS continues
        # the same generator with the start as its next draw instead of
        # replaying its first draw, and groups each micro-batch in one call
        _, manifest, ckpt = probe_setup
        cfg = ckpt.config
        resampled, batches = [], []
        resample, patchify = ev.resample, ev.patchify

        def spy_resample(points, target, rng):
            out = resample(points, target, rng)
            resampled.append((rng, rng.bit_generator.state, ev.normalize_unit_sphere(out)))
            return out

        def spy_patchify(points, n, k, rngs):
            # the start each generator gives when nothing else draws first
            starts = [int(copy.deepcopy(r).integers(points.shape[1])) for r in rngs]
            states = [r.bit_generator.state for r in rngs]
            ps = patchify(points, n, k, rngs)
            batches.append((points, list(rngs), states, starts, ps))
            return ps

        monkeypatch.setattr(ev, "resample", spy_resample)
        monkeypatch.setattr(ev, "patchify", spy_patchify)
        ev.extract_features(ckpt, manifest, "train")
        rows = len(manifest.split("train"))
        assert rows > ev.MICRO_BATCH
        assert len(resampled) == rows
        assert [len(b[1]) for b in batches] == [
            min(ev.MICRO_BATCH, rows - lo) for lo in range(0, rows, ev.MICRO_BATCH)]
        grouped = [r for b in batches for r in b[1]]
        assert all(a is b for a, (b, _, _) in zip(grouped, resampled, strict=True))
        assert len({id(r) for r in grouped}) == rows
        i = 0
        for points, rngs, states, starts, ps in batches:
            assert points.shape == (len(rngs), cfg.num_points, 3)
            for j, (state, start) in enumerate(zip(states, starts)):
                _, after_resample, cloud = resampled[i]
                # nothing drew between resample and the FPS start
                assert state == after_resample
                assert points[j].tobytes() == cloud.tobytes()
                assert ps.centers[j][0].tobytes() == cloud[start].tobytes()
                i += 1

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_features_equal_each_cloud_grouped_and_encoded_alone(self, probe_setup, precision):
        _, manifest, _ = probe_setup
        ckpt = foreign_checkpoint(tiny_cfg(precision=precision))
        cfg = ckpt.config
        # not frozen: the reference max pool goes through the graph path
        model = build_model(cfg)
        restore(model, ckpt)
        for split in ("train", "test"):
            got = ev.extract_features(ckpt, manifest, split)
            rows = []
            for entry in manifest.split(split):
                rng = stream(zlib.crc32(entry.path.encode()), "probe")
                cloud = normalize_unit_sphere(
                    resample(read_cloud(manifest.resolve(entry)), cfg.num_points, rng))
                ps = normalize_patches(patchify(cloud, cfg.num_patches, cfg.patch_size, rng))
                encoded = model.encode_all(PatchSet(centers=ps.centers[None],
                                                    patches=ps.patches[None], normalized=True))
                rows.append(np.concatenate([ag.max_pool_over_axis(encoded, axis=1).data,
                                            encoded.data.mean(axis=1)], axis=1))
            want = np.concatenate(rows).astype(np.float64)
            assert got.features.tobytes() == want.tobytes()

    def test_features_repeat(self, probe_setup):
        _, manifest, ckpt = probe_setup
        a = ev.extract_features(ckpt, manifest, "train")
        b = ev.extract_features(ckpt, manifest, "train")
        assert a.features.shape == (len(manifest.split("train")), 32)
        assert a.features.tobytes() == b.features.tobytes()


class TestProbeCommand:
    def run(self, probe_setup, *extra):
        root, manifest, _ = probe_setup
        out = root / "-".join(extra).replace(".", "_")
        rc = cli.main(["probe", "--checkpoint", str(root / "init.ckpt"),
                       "--manifest", str(manifest.root / "manifest.tsv"),
                       "--out", str(out), *extra])
        return rc, out

    def test_sweep_end_to_end(self, probe_setup):
        rc, out = self.run(probe_setup, "--sweep")
        assert rc == 0
        report = json.loads((out / "probe_report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["regularization"] in CANDIDATES
        assert (out / "features_train.csv").exists() and (out / "features_test.csv").exists()
        rc, again = self.run(probe_setup, "--sweep", "--seed", "0")
        assert rc == 0 and json.loads((again / "probe_report.json").read_text()) == report

    @pytest.mark.parametrize("sweep", [(), ("--sweep",)], ids=["fixed", "sweep"])
    @pytest.mark.parametrize("c", ["nan", "inf", "0"])
    def test_bad_regularization_exits_bad_config(self, probe_setup, capsys, c, sweep):
        rc, out = self.run(probe_setup, "--regularization", c, *sweep)
        assert rc == cli.EXIT_BAD_CONFIG
        assert "invalid-config" in capsys.readouterr().err
        assert not out.exists()  # rejected before extraction writes anything

    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_out_of_range_seed_exits_bad_config(self, probe_setup, capsys, seed):
        rc, out = self.run(probe_setup, "--sweep", "--seed", seed)
        assert rc == cli.EXIT_BAD_CONFIG
        assert "seed must be in" in capsys.readouterr().err
        assert not out.exists()  # rejected before extraction writes anything


class TestFailedEvaluationCreatesNoOut:
    def test_probe_without_train_rows(self, probe_setup, capsys):
        root, manifest, _ = probe_setup
        test_only = manifest.root / "test_only.tsv"
        DatasetManifest(manifest.root, manifest.split("test")).save(test_only)
        out = root / "probe-no-train"
        rc = cli.main(["probe", "--checkpoint", str(root / "init.ckpt"),
                       "--manifest", str(test_only), "--out", str(out)])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "manifest split 'train' is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_fewshot_with_too_few_rows_per_class(self, probe_setup, capsys):
        root, manifest, _ = probe_setup
        out = root / "fewshot-short"
        rc = cli.main(["fewshot", "--checkpoint", str(root / "init.ckpt"),
                       "--manifest", str(manifest.root / "manifest.tsv"), "--out", str(out),
                       "--ways", "4", "--shots", "2", "--queries", "5"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "fewer than shots+queries=7" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**32)])
def test_reconstruct_out_of_range_seed_exits_bad_config(probe_setup, capsys, seed):
    root, manifest, _ = probe_setup
    out = root / f"reconstruct{seed}"
    rc = cli.main(["reconstruct", "--checkpoint", str(root / "init.ckpt"), "--input",
                   str(manifest.resolve(manifest.entries[0])), "--out", str(out),
                   "--seed", seed])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "seed must be in" in capsys.readouterr().err
    assert not out.exists()


class NoNormalDraws(np.random.Generator):
    """A generator that refuses ``normal``: model init is the package's only
    draw from it outside ``synth_generate``'s jitter."""

    def normal(self, *args, **kwargs):
        raise AssertionError("drew initial weights")


def foreign_checkpoint(cfg: TrainConfig):
    """A checkpoint of ``cfg`` whose weights are not the ones ``cfg``'s seed
    draws, so a model that skipped its restore would show."""
    model = build_model(replace(cfg, seed=cfg.seed + 1))
    return snapshot(model, AdamW(model.parameters()), cfg, epoch=0)


def drawing_build_model(cfg, draw=True):
    """A ``build_model`` that always draws: with ``restore``, the reference."""
    return build_model(cfg)


ENCODERS = [dict(), dict(encoder="pointnet", pointnet_hidden="16")]


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("encoder", ENCODERS, ids=["transformer", "pointnet"])
class TestCheckpointModels:
    """A model whose weights come from a checkpoint is built without drawing
    and computes exactly what a drawn-then-restored model computes."""

    def test_features_equal_a_drawn_and_restored_model(self, probe_setup, monkeypatch,
                                                       encoder, precision):
        _, manifest, _ = probe_setup
        ckpt = foreign_checkpoint(tiny_cfg(precision=precision, **encoder))
        got = [ev.extract_features(ckpt, manifest, split) for split in ("train", "test")]
        monkeypatch.setattr(ev, "build_model", drawing_build_model)
        want = [ev.extract_features(ckpt, manifest, split) for split in ("train", "test")]
        for a, b in zip(got, want):
            assert a.features.dtype == b.features.dtype
            assert a.features.tobytes() == b.features.tobytes()

    def test_random_init_features_equal_a_fresh_model(self, probe_setup, encoder, precision):
        _, manifest, _ = probe_setup
        cfg = tiny_cfg(precision=precision, **encoder)
        fresh = build_model(cfg)
        fresh_ckpt = snapshot(fresh, AdamW(fresh.parameters()), cfg, epoch=0)
        got = ev.extract_features(foreign_checkpoint(cfg), manifest, "test", random_init=True)
        want = ev.extract_features(fresh_ckpt, manifest, "test")
        assert got.features.tobytes() == want.features.tobytes()

    def test_reconstruct_export_equals_a_drawn_and_restored_model(self, probe_setup, tmp_path,
                                                                  monkeypatch, encoder,
                                                                  precision):
        _, manifest, _ = probe_setup
        ckpt = foreign_checkpoint(tiny_cfg(precision=precision, **encoder))
        cloud = read_cloud(manifest.resolve(manifest.split("test")[0]))
        files = {}
        for name in ("allocated", "drawn"):
            if name == "drawn":
                monkeypatch.setattr(ev, "build_model", drawing_build_model)
            written = ev.reconstruct_export(ckpt, cloud, tmp_path / name, seed=3)
            files[name] = {stem: path.read_bytes() for stem, path in written.items()}
        assert files["allocated"] == files["drawn"]

    def test_checkpoint_paths_draw_no_weights(self, probe_setup, tmp_path, monkeypatch,
                                              encoder, precision):
        _, manifest, _ = probe_setup
        ckpt = foreign_checkpoint(tiny_cfg(precision=precision, **encoder))
        cloud = read_cloud(manifest.resolve(manifest.split("test")[0]))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoNormalDraws(np.random.PCG64(seed)))
        ev.extract_features(ckpt, manifest, "test")
        ev.reconstruct_export(ckpt, cloud, tmp_path, seed=3)
        assert pretrain(manifest, ckpt.config, resume=ckpt).epoch == 1
        # the untrained baseline and a fresh run do draw, so the guard is live
        with pytest.raises(AssertionError, match="initial weights"):
            ev.extract_features(ckpt, manifest, "test", random_init=True)
        with pytest.raises(AssertionError, match="initial weights"):
            pretrain(manifest, ckpt.config)
