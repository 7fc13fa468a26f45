"""Multi-megabyte batches cross the process boundary intact.

Record buckets and sink emissions travel between driver and workers as
codec frames over each worker's pipe; a frame of several MB must
round-trip exactly as the serial backend computes it, batch after
batch.
"""

from repro.obs import MetricsRegistry
from repro.streaming import StreamRecord, StreamingContext
from repro.streaming.codec import encode_emits, encode_records

MB = 1 << 20


# ---------------------------------------------------------------------------
# Picklable operators
# ---------------------------------------------------------------------------

def double(record, worker):
    return StreamRecord(value=record.value * 2, key=record.key)


def widen(record, worker):
    return StreamRecord(value=record.value * 20, key=record.key)


def run_twice(execution, operator, records):
    """Per-batch emitted values over two identical batches."""
    ctx = StreamingContext(
        num_partitions=2, metrics=MetricsRegistry(), execution=execution
    )
    out = ctx.source().map(operator).collector()
    batches = []
    for _ in range(2):
        ctx.run_batch(records)
        batches.append([r.value for r in out.clear()])
    ctx.shutdown()
    return batches


class TestLargePayloads:
    def test_multi_megabyte_bucket_round_trips(self):
        records = [  # distinct values: no ALL_SAME column shortcut
            StreamRecord(value="x" * 4096 + str(i), key=str(i))
            for i in range(1200)
        ]
        assert len(encode_records(records[::2])) > 2 * MB
        serial = run_twice("serial", double, records)
        assert run_twice("processes", double, records) == serial
        assert [len(batch) for batch in serial] == [1200, 1200]

    def test_multi_megabyte_emissions_round_trip(self):
        records = [
            StreamRecord(value=str(i) + "y" * 512, key=str(i))
            for i in range(1000)
        ]
        # Small buckets out, ~5 MB of emissions back per partition.
        emitted = [(1, widen(r, None)) for r in records[::2]]
        assert len(encode_emits(emitted)) > 4 * MB
        serial = run_twice("serial", widen, records)
        assert run_twice("processes", widen, records) == serial
        assert [len(batch) for batch in serial] == [1000, 1000]

    def test_single_record_larger_than_a_pipe_buffer(self):
        big = "z" * (2 * MB)
        records = [StreamRecord(value=big, key="k")]
        assert run_twice("processes", double, records) == [
            [big * 2], [big * 2],
        ]
