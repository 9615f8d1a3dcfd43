"""The seed reaches every generator and mix, and only the seed does."""

from perfbench import inputs


def test_same_seed_same_fingerprints_and_exact_sizes():
    first = inputs.seeded_traces(7, 600, "t")
    second = inputs.seeded_traces(7, 600, "t")
    assert inputs.fingerprints(first) == inputs.fingerprints(second)
    assert [len(trace) for trace in first] == [600, 600, 600]


def test_every_trace_changes_with_the_seed():
    one = inputs.fingerprints(inputs.seeded_traces(1, 600, "t"))
    two = inputs.fingerprints(inputs.seeded_traces(2, 600, "t"))
    assert one.keys() == two.keys()
    assert all(one[name] != two[name] for name in one)


def test_written_files_decode_to_the_same_trace(tmp_path):
    from repro.trace.io import read_trace

    traces = inputs.seeded_traces(3, 300, "t")
    paths = inputs.write_bfbp(traces, tmp_path)
    decoded = [read_trace(path) for path in paths]
    assert inputs.fingerprints(decoded) == inputs.fingerprints(traces)
