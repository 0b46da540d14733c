"""``output_hashes.py``, the byte-equality check between two checkouts,
hashes the same outputs on a rerun."""
from output_hashes import CONFIGS, run_hashes


def test_a_rerun_hashes_the_same(tmp_path):
    configs = {"decomposed": CONFIGS["decomposed"]}
    runs = [run_hashes(tmp_path / name, configs, ("single",), ("patch",))
            for name in ("a", "b")]
    assert runs[0] == runs[1]
    assert {"decomposed/single/checkpoint.ckpt", "decomposed/single/epoch1.ckpt",
            "decomposed/single/resumed/checkpoint.ckpt", "decomposed/single/metrics.csv",
            "decomposed/single/features-test", "decomposed/single/recon/recon_masked",
            "corrupt/patch-none/plan.json"} <= runs[0].keys()
