"""ServeClient's transport retry: capped exponential backoff with
deterministic per-client jitter."""

from repro.serve import ServeClient


class TestBackoff:
    def test_deterministic_per_client(self):
        a, b = ServeClient("http://localhost:1", name="w0"), ServeClient(
            "http://localhost:1", name="w0"
        )
        assert [a.backoff_s(i) for i in range(1, 6)] == [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_different_clients_get_different_jitter(self):
        a, b = ServeClient("http://localhost:1", name="w0"), ServeClient(
            "http://localhost:1", name="w1"
        )
        assert [a.backoff_s(i) for i in range(1, 6)] != [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_exponential_then_capped(self):
        client = ServeClient(
            "http://localhost:1", name="w0", backoff_base_s=0.1, backoff_cap_s=1.0
        )
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.4), (20, 1.0)):
            delay = client.backoff_s(attempt)
            assert raw * 0.5 <= delay <= raw  # jitter scales into [0.5, 1.0]
