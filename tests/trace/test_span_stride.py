"""A span whose stride is not positive is an error everywhere.

``OP_READ_SPAN base size stride`` with ``size > 0`` and ``stride <= 0``
has no end: the replay loops' ``while offset < size`` never advances.
Every consumer of packed spans must raise the fused ladder's
``ValueError("non-positive span stride ...")`` instead of spinning or
silently dropping the span.  The replay cases run under a cycle limit,
so a consumer that spins fails with ``RuntimeError`` rather than hanging
the suite.
"""

import dataclasses
from array import array

import pytest

from repro.api import run_simulation
from repro.core.config import SystemConfig
from repro.model.profile import build_row_profile
from repro.trace.analysis import data_lines
from repro.trace.engine import available_backends
from repro.trace.multiconfig import fused_ladder_results
from repro.trace.packed import (OP_READ, OP_READ_SPAN, decode_events,
                                event_count)
from repro.trace.record import ReplayApplication

CONFIG = SystemConfig(clusters=1, processors_per_cluster=1,
                      scc_size=1024, line_size=16)

CONSUMERS = ["replay-python", "replay-native",
             "replay-generic", "fused-python", "fused-native",
             "profile-python",
             "profile-native", "decode_events", "event_count",
             "data_lines"]


def _consume(consumer: str, stream: array) -> None:
    streams = {0: stream}
    if consumer.startswith("replay-"):
        engine = consumer[len("replay-"):]
        config = CONFIG
        backend = engine
        if engine == "generic":
            # Two-way SCC arrays take the per-event dispatch path.
            config = dataclasses.replace(CONFIG, associativity=2)
            backend = "python"
        elif engine not in available_backends():
            pytest.skip(f"{engine} backend unavailable")
        run_simulation(config, ReplayApplication(streams),
                       max_cycles=1_000_000, backend=backend)
    elif consumer.startswith(("fused-", "profile-")):
        engine = consumer.split("-")[1]
        if engine not in available_backends():
            pytest.skip(f"{engine} backend unavailable")
        if consumer.startswith("fused-"):
            ladder = [CONFIG, CONFIG.with_updates(scc_size=2048)]
            fused_ladder_results(ladder, streams, backend=engine)
        else:
            build_row_profile(streams, CONFIG, (64,), backend=engine)
    elif consumer == "decode_events":
        list(decode_events(stream))
    elif consumer == "event_count":
        event_count(stream)
    else:
        data_lines(stream, 16)


@pytest.mark.parametrize("stride", [0, -16])
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_non_positive_span_stride_raises(consumer, stride):
    stream = array("q", [OP_READ, 0, OP_READ_SPAN, 0, 32, stride])
    with pytest.raises(ValueError, match="non-positive span stride at 2"):
        _consume(consumer, stream)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_empty_span_with_zero_size_is_not_an_error(consumer):
    # size <= 0 expands to no references whatever the stride sign.
    stream = array("q", [OP_READ, 0, OP_READ_SPAN, 0, 0, 16])
    _consume(consumer, stream)
