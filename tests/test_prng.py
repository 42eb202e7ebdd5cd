from goppacrypt.prng import SeededStream


def test_same_seed_same_stream():
    a = SeededStream(b"seed-1").read(257)
    b = SeededStream(b"seed-1").read(257)
    assert a == b
    assert SeededStream(b"seed-2").read(257) != a


def test_chunking_does_not_change_bytes():
    whole = SeededStream(b"chunk").read(1000)
    s = SeededStream(b"chunk")
    parts = b"".join(s.read(n) for n in (1, 2, 64, 333, 600))
    assert parts == whole


def test_randbelow_range_and_determinism():
    s = SeededStream(b"rb")
    vals = [s.randbelow(100) for _ in range(2000)]
    assert all(0 <= v < 100 for v in vals)
    s2 = SeededStream(b"rb")
    assert vals == [s2.randbelow(100) for _ in range(2000)]
    assert SeededStream(b"one").randbelow(1) == 0
    # bound 1 reads no bytes: the next read is a fresh stream's first
    one = SeededStream(b"one")
    assert one.randbelow(1) == 0
    assert one.read(16) == SeededStream(b"one").read(16)
    # power-of-two bounds never reject, so they consume a fixed byte count
    s3 = SeededStream(b"pow2")
    for _ in range(100):
        assert 0 <= s3.randbelow(256) < 256


def test_randbelow_roughly_uniform():
    s = SeededStream(b"uniform")
    counts = [0] * 10
    for _ in range(10000):
        counts[s.randbelow(10)] += 1
    assert min(counts) > 800 and max(counts) < 1200


def test_sample_distinct():
    s = SeededStream(b"fy")
    got = s.sample_distinct(50, 12)
    assert len(got) == 12 and len(set(got)) == 12
    assert all(0 <= v < 50 for v in got)
    assert got == SeededStream(b"fy").sample_distinct(50, 12)
    full = SeededStream(b"fy2").sample_distinct(20, 20)
    assert sorted(full) == list(range(20))
    # taking fewer is a prefix of taking more
    assert SeededStream(b"fy3").sample_distinct(30, 5) == \
        SeededStream(b"fy3").sample_distinct(30, 11)[:5]


def test_child_streams_are_domain_separated():
    root = SeededStream(b"root")
    a = root.child(b"sig").read(32)
    b = root.child(b"blocks").read(32)
    assert a != b
    assert a == SeededStream(b"root").child(b"sig").read(32)
