"""``output_hashes.py``, the byte-equality check between two checkouts,
hashes the same outputs on a rerun, and its ``--compare`` names what moved."""
import json

from output_hashes import CONFIGS, main, run_hashes


def test_a_rerun_hashes_the_same(tmp_path):
    configs = {"decomposed": CONFIGS["decomposed"]}
    runs = [run_hashes(tmp_path / name, configs, ("single",), ("patch",))
            for name in ("a", "b")]
    assert runs[0] == runs[1]
    assert {"decomposed/single/checkpoint.ckpt", "decomposed/single/epoch1.ckpt",
            "decomposed/single/resumed/checkpoint.ckpt", "decomposed/single/metrics.csv",
            "decomposed/single/features-test", "decomposed/single/recon/recon_masked",
            "corrupt/patch-none/plan.json"} <= runs[0].keys()


def test_compare_names_every_moved_hash(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"kept": "1", "moved": "2", "dropped": "3"}))
    b.write_text(json.dumps({"kept": "1", "moved": "4", "added": "5"}))
    assert main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {b}: added", f"only in {a}: dropped", "differs: moved"]
    assert main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == ""
