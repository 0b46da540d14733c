"""``graph_ops.py`` counts one micro-batch's autograd graph by primitive; on
the small configs of ``output_hashes.py`` the counts are the ones derived by
hand here, part by part."""
import inspect
from collections import Counter

from recloud import autograd as ag
from recloud.trainer import TrainConfig

from graph_ops import graph_ops, main, report
from output_hashes import CONFIGS, TINY

# one pre-norm block with the positional embedding added at its input: two
# layer norms; the q, k, v, output and two feed-forward layers; the 12
# attention ops between the projections (a reshape and a transpose each for
# q, k, v and the output, two products, the scale and the softmax); the
# GELU; and three adds
BLOCK = Counter(linear=6, layer_norm=2, reshape=4, transpose=4, matmul=2, scale=1, softmax=1,
                gelu=1, add=3)


def tiny(name: str, **overrides) -> TrainConfig:
    return TrainConfig(**{**TINY, **CONFIGS[name], **overrides})


def test_every_node_is_counted_under_a_primitive():
    names = {name for name, fn in vars(ag).items() if inspect.isfunction(fn)}
    for name in CONFIGS:
        counts = graph_ops(tiny(name))
        assert counts and set(counts) <= names | {"chamfer"}, name


def test_a_pointnet_graph():
    want = (Counter(linear=2, relu=1, _pool=1)  # encoder: (3, 16, 16) and the max pool
            + Counter(linear=2, relu=1, reshape=1)  # fc head, (B, 3k) rows to (B, k, 3)
            + Counter(chamfer=1, sum_in_order=1, scale=1))  # loss, then the step's sum
    assert graph_ops(tiny("pointnet-none")) == want
    assert graph_ops(tiny("pointnet-random")) == want


def test_each_transformer_block_adds_its_ops():
    base = graph_ops(tiny("decomposed", encoder_depth=3))
    assert base == graph_ops(tiny("decomposed")) + BLOCK
    assert graph_ops(tiny("decomposed", encoder_depth=3, decoder_depth=2)) == base + BLOCK


def test_a_decomposed_patch_graph():
    want = (BLOCK + BLOCK + BLOCK  # two encoder blocks, one decoder block
            + Counter(linear=2, relu=1, _pool=1)  # token embedder, no layout step
            + Counter(linear=4, gelu=2)  # the encoder's and the decoder's positional MLPs
            + Counter(scatter_rows=2, add=2, gather_rows=1)  # mask tokens in, masked rows out
            + Counter(fold_linear=1, relu=2, linear=2)  # local fold head
            + Counter(_pool=1, linear=2, relu=1, reshape=1)  # pooled fc center head
            + Counter(chamfer=2, sum_in_order=1, scale=1)  # local and global losses
            + Counter(add=1, scale=1)  # local + weight * global
            + Counter(sum_in_order=1, scale=1))  # the step's sum
    assert graph_ops(tiny("decomposed")) == want


def test_report_lists_the_most_frequent_first():
    assert report("x", Counter(relu=1, linear=2, add=2)).splitlines() == [
        "x: 5 nodes", "  add 2", "  linear 2", "  relu 1"]


def test_main_counts_each_training_workload(capsys):
    assert main() == 0
    totals = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert totals == ["patch-dae: 177 nodes", "cloud-ae: 13 nodes"]
