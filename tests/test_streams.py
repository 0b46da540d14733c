import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from recloud import data
from recloud.data import STREAMS, SynthSpec, stream
from recloud.evaluation import EpisodeSpec
from recloud.trainer import TrainConfig

SEEDS = (0, 1, 2, 2**32 - 1)


def state(gen: np.random.Generator) -> bytes:
    return gen.bit_generator.seed_seq.generate_state(8).tobytes()


class TestStreamTable:
    def test_every_purpose_and_id_tuple_is_its_own_stream(self):
        # SeedSequence ignores trailing zeros, so ids of 0 are where entropies
        # of different lengths would meet
        owners: dict[bytes, tuple] = {}
        for seed, (purpose, (_, names)) in itertools.product(SEEDS, STREAMS.items()):
            for ids in itertools.product(range(4), repeat=len(names)):
                key = (seed, purpose, *ids)
                assert owners.setdefault(state(stream(seed, purpose, *ids)), key) == key
        assert len(owners) == len(SEEDS) * sum(4 ** len(names) for _, names in STREAMS.values())

    def test_tags_are_distinct_and_only_init_has_tag_zero(self):
        tags = [tag for tag, _ in STREAMS.values()]
        assert len(set(tags)) == len(tags)
        assert STREAMS["init"] == (0, ())

    @pytest.mark.parametrize("args", [(0, "sample", 1), (0, "init", 0), (-1, "init"),
                                      (2**32, "init"), (0, "shuffle", 2**32),
                                      (0, "load", -1)])
    def test_wrong_id_count_or_out_of_range_word_rejected(self, args):
        with pytest.raises(ValueError, match=args[1]):
            stream(*args)

    def test_only_the_stream_module_builds_generators(self):
        # one owner of randomness: every other module asks ``stream``
        owner = Path(inspect.getsourcefile(data))
        offenders = []
        for path in sorted(owner.parent.glob("*.py")):
            if path == owner:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if re.search(r"\b(default_rng|SeedSequence)\(", line):
                    offenders.append(f"{path.name}:{lineno}")
        assert offenders == []


@pytest.mark.parametrize("build", [TrainConfig, SynthSpec, EpisodeSpec],
                         ids=["TrainConfig", "SynthSpec", "EpisodeSpec"])
class TestSeedRange:
    """A seed enters the program as a 32-bit word: a negative one would fail
    deep in numpy, and a larger one would alias another stream."""

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
    def test_out_of_range_seed_rejected_when_built(self, build, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*32\)"):
            build(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1])
    def test_edge_seeds_accepted(self, build, seed):
        assert build(seed=seed).seed == seed
