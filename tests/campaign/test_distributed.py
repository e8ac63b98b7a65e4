"""Tests for distributed campaign execution: protocol, coordinator, workers.

The end-to-end class here is the PR's acceptance test (and the CI step): a
campaign executed over the TCP backend across two worker processes — one of
which is forcibly killed after taking a lease — must complete via lease
requeue and produce a sharded store byte-identical to a serial run.
"""

import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import (
    CampaignSpec,
    Coordinator,
    SerialBackend,
    ShardedResultStore,
    TCPBackend,
    merge_stores,
    resolve_backend,
    run_campaign,
    run_worker,
)
from repro.campaign.distributed import (
    parse_address,
    recv_frame,
    request,
    send_frame,
)
from repro.errors import CampaignError
from repro.telemetry import activate, current, load_telemetry_stats, telemetry


def small_spec(workloads=("gcc", "mcf", "namd", "xalancbmk"), num_accesses=800):
    return CampaignSpec(
        name="dist-test",
        workloads=workloads,
        base_settings=fast_settings(num_accesses=num_accesses),
    )


class TestFrameProtocol:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        with left, right:
            message = {"type": "pull", "worker": "w1", "payload": {"n": [1, 2, 3]}}
            send_frame(left, message)
            assert recv_frame(right) == message

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None

    def test_frame_without_type_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"notype": 1})
            with pytest.raises(CampaignError, match="no 'type'"):
                recv_frame(right)

    @pytest.mark.parametrize(
        "body", (b"\xff\xfe", b"{not json"), ids=("non-utf8", "non-json")
    )
    def test_undecodable_body_rejected(self, body):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(CampaignError, match="malformed protocol frame"):
                recv_frame(right)

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(CampaignError, match="refusing"):
                recv_frame(right)

    @pytest.mark.parametrize(
        "bad", ("udp://h:1", "tcp://", "tcp://h", "tcp://h:x", "tcp://h:70000")
    )
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(CampaignError):
            parse_address(bad)

    def test_parse_address(self):
        assert parse_address("tcp://10.0.0.5:7654") == ("10.0.0.5", 7654)


def tiny_payloads(n=3):
    """Fake payloads keyed k0..k(n-1); never executed, only scheduled."""
    return {f"k{i}": {"job": {"fake": i}} for i in range(n)}


class TestCoordinator:
    def test_pull_result_cycle(self):
        with Coordinator() as coordinator:
            coordinator.submit(tiny_payloads(2))
            address = coordinator.address
            reply = request(address, {"type": "pull", "worker": "w1"})
            assert reply["type"] == "job"
            assert reply["payload"] == {"job": {"fake": int(reply["key"][1])}}
            ack = request(
                address,
                {
                    "type": "result",
                    "lease": reply["lease"],
                    "key": reply["key"],
                    "result": {"r": 1},
                    "elapsed": 0.5,
                },
            )
            assert ack == {"type": "ack", "accepted": True}
            results = coordinator.results(timeout_s=10)
            key, result, elapsed = next(results)
            assert (key, result, elapsed) == (reply["key"], {"r": 1}, 0.5)

    def test_wait_then_shutdown(self):
        with Coordinator() as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "w1"})
            # Queue drained but job leased: a second worker is told to wait.
            assert request(coordinator.address, {"type": "pull", "worker": "w2"})[
                "type"
            ] == "wait"
            request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": job["lease"],
                    "key": job["key"],
                    "result": {},
                    "elapsed": 0.0,
                },
            )
            list(coordinator.results(timeout_s=10))
            assert request(coordinator.address, {"type": "pull", "worker": "w3"})[
                "type"
            ] == "shutdown"

    def test_expired_lease_requeues_for_another_worker(self):
        with Coordinator(lease_timeout_s=0.2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            first = request(coordinator.address, {"type": "pull", "worker": "doomed"})
            assert first["type"] == "job"
            time.sleep(0.3)
            second = request(coordinator.address, {"type": "pull", "worker": "healthy"})
            assert second["type"] == "job"
            assert second["key"] == first["key"]
            assert coordinator.requeues == 1
            assert coordinator.workers_seen == {"doomed", "healthy"}

    def test_heartbeat_keeps_lease_alive(self):
        with Coordinator(lease_timeout_s=0.4) as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "slow"})
            for _ in range(4):
                time.sleep(0.2)
                ack = request(
                    coordinator.address, {"type": "heartbeat", "lease": job["lease"]}
                )
                assert ack["known"] is True
            # Lease still held after 0.8s > lease_timeout: no requeue.
            assert request(coordinator.address, {"type": "pull", "worker": "w2"})[
                "type"
            ] == "wait"
            assert coordinator.requeues == 0

    def test_duplicate_completion_after_requeue_ignored(self):
        with Coordinator(lease_timeout_s=0.2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            first = request(coordinator.address, {"type": "pull", "worker": "w1"})
            time.sleep(0.3)
            second = request(coordinator.address, {"type": "pull", "worker": "w2"})
            for reply, accepted in ((second, True), (first, False)):
                ack = request(
                    coordinator.address,
                    {
                        "type": "result",
                        "lease": reply["lease"],
                        "key": reply["key"],
                        "result": {},
                        "elapsed": 0.0,
                    },
                )
                assert ack["accepted"] is accepted
            assert len(list(coordinator.results(timeout_s=10))) == 1

    def test_worker_error_requeues_then_fails_campaign(self):
        with Coordinator(lease_timeout_s=30, max_attempts=2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            for _attempt in range(2):
                job = request(coordinator.address, {"type": "pull", "worker": "w"})
                assert job["type"] == "job"
                request(
                    coordinator.address,
                    {
                        "type": "error",
                        "lease": job["lease"],
                        "key": job["key"],
                        "message": "boom",
                    },
                )
            with pytest.raises(CampaignError, match="failed on every attempt"):
                list(coordinator.results(timeout_s=10))

    def test_late_result_from_slow_worker_rejected_exactly_once(self):
        """Lease expiry vs a slow-but-alive worker: its late result arrives
        while the requeued lease is live and must be rejected (exactly
        once), the requeued attempt's result kept, and exactly one
        completion delivered — so the store is written once."""
        with Coordinator(lease_timeout_s=0.2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            slow = request(coordinator.address, {"type": "pull", "worker": "slow"})
            time.sleep(0.3)  # slow worker exceeds its lease but stays alive
            healthy = request(coordinator.address, {"type": "pull", "worker": "fast"})
            assert healthy["type"] == "job" and healthy["key"] == slow["key"]
            # The slow worker finishes anyway and reports with its expired
            # lease while the healthy worker still owns the requeued one.
            late = request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": slow["lease"],
                    "key": slow["key"],
                    "result": {"from": "slow"},
                    "elapsed": 9.9,
                },
            )
            assert late == {"type": "ack", "accepted": False}
            good = request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": healthy["lease"],
                    "key": healthy["key"],
                    "result": {"from": "fast"},
                    "elapsed": 0.1,
                },
            )
            assert good == {"type": "ack", "accepted": True}
            # A duplicate of the late report after completion: still False.
            again = request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": slow["lease"],
                    "key": slow["key"],
                    "result": {"from": "slow"},
                    "elapsed": 9.9,
                },
            )
            assert again == {"type": "ack", "accepted": False}
            results = list(coordinator.results(timeout_s=10))
            assert len(results) == 1
            key, result, elapsed = results[0]
            assert result == {"from": "fast"} and elapsed == 0.1

    def test_stale_error_after_requeue_is_ignored(self):
        """A dead worker's late error report must not fail or double-queue a
        job that has already been handed to a live worker."""
        with Coordinator(lease_timeout_s=0.2, max_attempts=2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            first = request(coordinator.address, {"type": "pull", "worker": "w1"})
            time.sleep(0.3)  # lease expires
            second = request(coordinator.address, {"type": "pull", "worker": "w2"})
            assert second["type"] == "job"
            # w1 wakes up and reports a failure with its expired lease.
            ack = request(
                coordinator.address,
                {
                    "type": "error",
                    "lease": first["lease"],
                    "key": first["key"],
                    "message": "late boom",
                },
            )
            assert ack["accepted"] is False
            # w2 still owns the job and completes it; the campaign succeeds.
            request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": second["lease"],
                    "key": second["key"],
                    "result": {"ok": 1},
                    "elapsed": 0.0,
                },
            )
            results = list(coordinator.results(timeout_s=10))
            assert len(results) == 1

    def test_idle_timeout_raises_when_no_workers(self):
        with Coordinator() as coordinator:
            coordinator.submit(tiny_payloads(1))
            with pytest.raises(CampaignError, match="timed out"):
                list(coordinator.results(timeout_s=0.3))


class TestBackendResolution:
    def test_spellings(self):
        assert resolve_backend(None, 1).name == "serial"
        assert resolve_backend(None, 4).name == "local"
        assert resolve_backend("serial", 8).name == "serial"
        assert resolve_backend("local", 4).workers == 4
        backend = resolve_backend("tcp://127.0.0.1:0", 1)
        assert backend.name == "tcp"
        backend.coordinator.close()
        instance = SerialBackend()
        assert resolve_backend(instance, 4) is instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(CampaignError, match="unknown backend"):
            resolve_backend("carrier-pigeon", 1)

    def test_runner_rejects_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown backend"):
            run_campaign(small_spec(), backend="warp")


def _healthy_worker(address: str) -> None:
    run_worker(address, worker_id=f"healthy-{os.getpid()}")


def _doomed_worker(address: str) -> None:
    """A worker that takes a lease and dies without reporting back."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        reply = request(address, {"type": "pull", "worker": f"doomed-{os.getpid()}"})
        if reply["type"] == "job":
            os._exit(1)  # hard death: no result, no further heartbeats
        time.sleep(0.05)
    os._exit(2)  # never saw a job: test setup problem


class TestDistributedEndToEnd:
    def test_tcp_campaign_with_worker_death_matches_serial(self, tmp_path):
        """Acceptance: >=2 worker processes, one killed after taking a lease;
        the lease requeues, the campaign completes, and the sharded store
        is byte-identical (file by file, after compaction) to a serial run.
        The distributed run records its coordinator health through telemetry
        (and must stay byte-identical while doing so — the serial reference
        runs uninstrumented).
        """
        spec = small_spec()
        serial_store = ShardedResultStore(tmp_path / "serial", shard_width=1)
        run_campaign(spec, store=serial_store, backend="serial")

        telemetry_path = tmp_path / "events.jsonl"
        with telemetry(telemetry_path, campaign=spec.name):
            # Built inside the scope: the coordinator captures the session
            # for its handler threads at construction.
            backend = TCPBackend(
                lease_timeout_s=1.0, idle_timeout_s=120.0, max_attempts=5
            )
            context = multiprocessing.get_context("fork")
            distributed_store = ShardedResultStore(
                tmp_path / "dist", shard_width=1
            )
            result_holder = {}
            session = current()

            def drive():
                with activate(session):
                    result_holder["result"] = run_campaign(
                        spec, store=distributed_store, backend=backend
                    )

            driver = threading.Thread(target=drive)
            driver.start()

            # First contact: a worker that takes one lease and dies hard.
            doomed = context.Process(
                target=_doomed_worker, args=(backend.address,)
            )
            doomed.start()
            doomed.join(timeout=60)
            assert doomed.exitcode == 1  # died holding a lease

            workers = [
                context.Process(target=_healthy_worker, args=(backend.address,))
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            driver.join(timeout=120)
            for worker in workers:
                worker.join(timeout=30)
            assert not driver.is_alive()

        result = result_holder["result"]
        assert result.executed == len(spec.workloads)
        assert result.backend == "tcp"
        # The dead worker's job really was requeued to a healthy worker.
        assert backend.coordinator.requeues >= 1
        assert any(
            worker_id.startswith("doomed")
            for worker_id in backend.coordinator.workers_seen
        )
        assert (
            len(
                {
                    worker_id
                    for worker_id in backend.coordinator.workers_seen
                    if worker_id.startswith("healthy")
                }
            )
            >= 2
        )

        # Byte identity: per-entry and whole-file after compaction.
        assert sorted(serial_store.keys()) == sorted(distributed_store.keys())
        for key in serial_store.keys():
            assert serial_store.entry_line(key) == distributed_store.entry_line(key)
        serial_store.compact()
        distributed_store.compact()
        serial_files = {p.name: p.read_bytes() for p in serial_store.shard_paths()}
        dist_files = {
            p.name: p.read_bytes() for p in distributed_store.shard_paths()
        }
        assert serial_files == dist_files

        # Coordinator health made it into the telemetry file: every job was
        # leased, the doomed worker's lease expired and was requeued, and
        # each completion carries both clocks (worker compute vs observed).
        stats = load_telemetry_stats(telemetry_path)
        distributed = stats.distributed
        assert distributed.seen
        assert distributed.lease_grants >= len(spec.workloads) + 1
        assert distributed.lease_expiries >= 1
        assert distributed.requeues == backend.coordinator.requeues
        assert distributed.results == len(spec.workloads)
        assert any(w.startswith("doomed") for w in distributed.lost_workers)
        assert any(w.startswith("healthy") for w in distributed.workers)
        assert distributed.worker_elapsed_s > 0.0
        assert distributed.observed_elapsed_s >= distributed.worker_elapsed_s
        assert distributed.frames.get("send", 0) > 0
        assert distributed.bytes.get("send", 0) > 0

    def test_split_campaign_stores_merge_to_serial_bytes(self, tmp_path):
        """Two half-campaigns on 'different machines' (separate stores),
        merged, equal one serial full-campaign store byte for byte."""
        spec = small_spec()
        full = ShardedResultStore(tmp_path / "full", shard_width=1)
        run_campaign(spec, store=full)
        half_a = ShardedResultStore(tmp_path / "a", shard_width=1)
        half_b = ShardedResultStore(tmp_path / "b", shard_width=1)
        jobs = spec.jobs()
        run_campaign(jobs[:2], store=half_a)
        run_campaign(jobs[2:], store=half_b)
        merged = ShardedResultStore(tmp_path / "merged", shard_width=1)
        report = merge_stores(merged, [half_a, half_b])
        assert report.total == len(spec.workloads)
        full.compact()
        merged.compact()
        assert {p.name: p.read_bytes() for p in full.shard_paths()} == {
            p.name: p.read_bytes() for p in merged.shard_paths()
        }

    def test_distributed_resumes_from_partial_store(self, tmp_path):
        """A store holding part of the campaign is resumed: cached jobs are
        served locally, the rest stream from TCP workers."""
        spec = small_spec()
        store = ShardedResultStore(tmp_path / "store")
        run_campaign(small_spec(workloads=spec.workloads[:2]), store=store)
        backend = TCPBackend(lease_timeout_s=5.0, idle_timeout_s=120.0)
        context = multiprocessing.get_context("fork")
        worker = context.Process(target=_healthy_worker, args=(backend.address,))
        worker.start()
        result = run_campaign(spec, store=store, backend=backend)
        worker.join(timeout=30)
        assert result.cached == 2
        assert result.executed == 2

    def test_worker_cli_entry_point(self, tmp_path):
        """`repro-reap worker tcp://...` drives a real campaign to completion."""
        from repro.cli import main

        spec = small_spec(workloads=("gcc", "mcf"))
        backend = TCPBackend(lease_timeout_s=5.0, idle_timeout_s=120.0)
        store = ShardedResultStore(tmp_path / "store")
        result_holder = {}

        def drive():
            result_holder["result"] = run_campaign(
                spec, store=store, backend=backend
            )

        driver = threading.Thread(target=drive)
        driver.start()
        assert main(["worker", backend.address]) == 0
        driver.join(timeout=120)
        assert result_holder["result"].executed == 2

    def test_fully_cached_campaign_closes_coordinator(self, tmp_path):
        """A run with nothing pending still shuts the coordinator down, so
        workers stop polling and the port is freed."""
        spec = small_spec(workloads=("gcc",))
        store = ShardedResultStore(tmp_path / "store")
        run_campaign(spec, store=store)
        backend = TCPBackend(lease_timeout_s=5.0)
        address = backend.address
        result = run_campaign(spec, store=store, backend=backend)
        assert result.cached == 1 and result.executed == 0
        with pytest.raises((OSError, CampaignError)):
            request(address, {"type": "pull", "worker": "late"}, timeout_s=2.0)

    def test_tcp_entries_match_local_pool_entries(self, tmp_path):
        """Backend is not part of job identity: tcp and local pool fill
        stores with identical bytes."""
        spec = small_spec(workloads=("gcc", "mcf"))
        pool_store = ShardedResultStore(tmp_path / "pool")
        run_campaign(spec, store=pool_store, jobs=2, backend="local")

        backend = TCPBackend(lease_timeout_s=5.0, idle_timeout_s=120.0)
        context = multiprocessing.get_context("fork")
        worker = context.Process(target=_healthy_worker, args=(backend.address,))
        worker.start()
        tcp_store = ShardedResultStore(tmp_path / "tcp")
        run_campaign(spec, store=tcp_store, backend=backend)
        worker.join(timeout=30)
        for key in pool_store.keys():
            assert pool_store.entry_line(key) == tcp_store.entry_line(key)
