"""Unit tests for the robustness tier: fault injection, signed frames,
coordinator checkpoints, worker reconnect backoff, and quarantine.

The end-to-end chaos acceptance test lives in ``test_chaos.py``; this file
pins each mechanism down in isolation so a chaos failure is debuggable.
"""

import json
import os
import socket
import threading
import time

import pytest

from campaign_test_utils import fast_settings
from repro.campaign import (
    CampaignSpec,
    Coordinator,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FrameAuth,
    ResultStore,
    enable_faults_for_process,
    load_checkpoint,
    recover_pending_payloads,
    run_campaign,
    run_worker,
)
from repro.campaign.distributed import (
    _Heartbeat,
    _Reconnector,
    recv_frame,
    request,
    send_frame,
)
from repro.campaign.faults import FAULT_PLAN_ENV, current_injector, inject_faults
from repro.errors import CampaignError, FrameAuthError
from repro.telemetry import activate, current, load_telemetry_stats, telemetry


def tiny_payloads(n=3):
    """Fake payloads keyed k0..k(n-1); never executed, only scheduled."""
    return {f"k{i}": {"job": {"fake": i}} for i in range(n)}


class TestFaultPlan:
    def test_json_round_trip_is_exact(self):
        plan = FaultPlan(
            seed=7,
            drop_request_p=0.1,
            corrupt_p=0.05,
            kill_at={"worker.after_pull": (1, 3)},
            torn_write_at=(2,),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("field", ["drop_request_p", "corrupt_p", "delay_p"])
    def test_probability_out_of_range_rejected(self, field):
        with pytest.raises(CampaignError, match=r"\[0, 1\]"):
            FaultPlan(**{field: 1.5})

    @pytest.mark.parametrize("text", ["not json", "[1,2]", '{"no_such_knob": 1}'])
    def test_malformed_plan_json_rejected(self, text):
        with pytest.raises(CampaignError, match="fault plan"):
            FaultPlan.from_json(text)

    def test_same_seed_replays_same_fates(self):
        plan = FaultPlan(seed=11, drop_request_p=0.3, corrupt_p=0.3, delay_p=0.3)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        fates_a = [first.frame_fate("result") for _ in range(200)]
        fates_b = [second.frame_fate("result") for _ in range(200)]
        assert fates_a == fates_b
        assert any(fate is not None for fate in fates_a)
        assert first.fired == second.fired

    def test_pulls_are_never_duplicated(self):
        injector = FaultInjector(FaultPlan(seed=3, duplicate_p=1.0))
        assert injector.frame_fate("pull") is None
        assert injector.frame_fate("result") == "duplicate"

    def test_kill_ordinals_are_per_site_and_exact(self):
        injector = FaultInjector(FaultPlan(kill_at={"site": (2,)}))
        assert injector.should_kill("site") is False
        assert injector.should_kill("other") is False  # own counter
        assert injector.should_kill("site") is True
        assert injector.should_kill("site") is False
        assert injector.fired["kill"] == 1

    def test_torn_length_targets_exact_append(self):
        injector = FaultInjector(FaultPlan(torn_write_at=(2,)))
        assert injector.torn_length(100) is None
        torn = injector.torn_length(100)
        assert torn is not None and 1 <= torn < 100
        assert injector.torn_length(100) is None

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        injector = FaultInjector(FaultPlan(seed=5))
        payload = bytes(range(64))
        corrupted = injector.corrupt_bytes(payload)
        assert len(corrupted) == len(payload)
        assert sum(a != b for a, b in zip(payload, corrupted)) == 1

    def test_context_scoping(self):
        assert current_injector() is None
        with inject_faults(FaultPlan(seed=1)) as injector:
            assert current_injector() is injector
        assert current_injector() is None

    def test_process_injector_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, FaultPlan(seed=9).to_json())
        try:
            injector = enable_faults_for_process()
            assert injector is not None and injector.plan.seed == 9
            assert current_injector() is injector
        finally:
            enable_faults_for_process("")
        assert current_injector() is None

    def test_injected_drop_is_a_campaign_error(self):
        with inject_faults(FaultPlan(drop_request_p=1.0)):
            with pytest.raises(CampaignError, match="injected drop"):
                request("tcp://127.0.0.1:1", {"type": "pull", "worker": "w"})


class TestFrameAuth:
    def test_signed_round_trip(self):
        auth = FrameAuth("secret")
        left, right = socket.socketpair()
        with left, right:
            message = {"type": "pull", "worker": "w1"}
            send_frame(left, message, auth)
            assert recv_frame(right, auth) == message

    def test_wrong_key_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"type": "pull"}, FrameAuth("alpha"))
            with pytest.raises(FrameAuthError, match="HMAC"):
                recv_frame(right, FrameAuth("beta"))

    def test_unsigned_frame_rejected_when_auth_on(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, {"type": "pull"}, auth=None)
            with pytest.raises(FrameAuthError):
                recv_frame(right, FrameAuth("secret"))

    def test_frame_shorter_than_mac_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(b"\x00\x00\x00\x02hi")
            with pytest.raises(FrameAuthError, match="shorter than one MAC"):
                recv_frame(right, FrameAuth("secret"))

    def test_tampered_body_rejected(self):
        auth = FrameAuth("secret")
        body = json.dumps({"type": "pull"}).encode()
        signed = auth.sign(body) + body
        tampered = bytearray(signed)
        tampered[-1] ^= 0x01
        left, right = socket.socketpair()
        with left, right:
            left.sendall(len(tampered).to_bytes(4, "big") + bytes(tampered))
            with pytest.raises(FrameAuthError):
                recv_frame(right, auth)

    def test_resolve_spellings(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUTH_KEY", raising=False)
        assert FrameAuth.resolve(None) is None
        assert FrameAuth.resolve("") is None
        assert isinstance(FrameAuth.resolve("k"), FrameAuth)
        existing = FrameAuth("k")
        assert FrameAuth.resolve(existing) is existing
        monkeypatch.setenv("REPRO_AUTH_KEY", "from-env")
        resolved = FrameAuth.resolve(None)
        assert resolved is not None
        assert resolved.verify(resolved.sign(b"x"), b"x")
        with pytest.raises(CampaignError, match="non-empty"):
            FrameAuth(b"")


class TestAuthenticatedCoordinator:
    def test_authed_pull_result_cycle_with_nonce(self):
        auth = FrameAuth("campaign-secret")
        with Coordinator(auth_key=auth) as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "w"}, auth=auth)
            assert job["type"] == "job"
            assert job["nonce"]  # replay nonce granted with the lease
            ack = request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": job["lease"],
                    "key": job["key"],
                    "nonce": job["nonce"],
                    "result": {"r": 1},
                    "elapsed": 0.1,
                },
                auth=auth,
            )
            assert ack == {"type": "ack", "accepted": True}
            assert len(list(coordinator.results(timeout_s=10))) == 1

    def test_wrong_nonce_rejected_right_nonce_accepted(self):
        auth = FrameAuth("campaign-secret")
        with Coordinator(auth_key=auth) as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "w"}, auth=auth)
            frame = {
                "type": "result",
                "lease": job["lease"],
                "key": job["key"],
                "nonce": "replayed-stale-nonce",
                "result": {},
                "elapsed": 0.0,
            }
            assert (
                request(coordinator.address, frame, auth=auth)["accepted"] is False
            )
            frame["nonce"] = job["nonce"]
            assert request(coordinator.address, frame, auth=auth)["accepted"] is True

    def test_heartbeat_with_wrong_nonce_does_not_renew(self):
        auth = FrameAuth("campaign-secret")
        with Coordinator(auth_key=auth, lease_timeout_s=30) as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "w"}, auth=auth)
            ack = request(
                coordinator.address,
                {"type": "heartbeat", "lease": job["lease"], "nonce": "wrong"},
                auth=auth,
            )
            assert ack["known"] is False
            ack = request(
                coordinator.address,
                {"type": "heartbeat", "lease": job["lease"], "nonce": job["nonce"]},
                auth=auth,
            )
            assert ack["known"] is True

    def test_hostile_frames_rejected_without_crashing(self, tmp_path):
        """Unsigned, garbage and truncated frames are dropped (connection
        closed, no reply) and the coordinator keeps serving authed peers."""
        auth = FrameAuth("campaign-secret")
        telemetry_path = tmp_path / "events.jsonl"
        with telemetry(telemetry_path, campaign="auth-test"):
            with Coordinator(auth_key=auth) as coordinator:
                coordinator.submit(tiny_payloads(1))
                host, port = coordinator.address[len("tcp://") :].rsplit(":", 1)

                # Unsigned protocol frame from a peer unaware of the key.
                with pytest.raises(CampaignError, match="closed without replying"):
                    request(coordinator.address, {"type": "pull", "worker": "naive"})
                # Raw garbage bytes (not even a frame).
                with socket.create_connection((host, int(port)), timeout=5) as sock:
                    sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                    sock.settimeout(5)
                    try:
                        assert sock.recv(1024) == b""  # dropped, no reply
                    except ConnectionResetError:
                        pass  # equally fine: dropped with a hard reset
                # Truncated signed frame: length prefix promises more bytes.
                with socket.create_connection((host, int(port)), timeout=5) as sock:
                    sock.sendall(b"\x00\x00\x01\x00only-a-few-bytes")

                # The coordinator is still healthy for authenticated peers.
                job = request(
                    coordinator.address, {"type": "pull", "worker": "w"}, auth=auth
                )
                assert job["type"] == "job"
                request(
                    coordinator.address,
                    {
                        "type": "result",
                        "lease": job["lease"],
                        "key": job["key"],
                        "nonce": job["nonce"],
                        "result": {},
                        "elapsed": 0.0,
                    },
                    auth=auth,
                )
                assert len(list(coordinator.results(timeout_s=10))) == 1
        stats = load_telemetry_stats(telemetry_path).distributed
        assert stats.auth_rejects >= 1
        assert stats.frame_rejects >= 1  # garbage/truncated, not auth failures


class _StubStore:
    """Duck-typed store: keys() plus an observable refresh()."""

    def __init__(self, keys=()):
        self._keys = set(keys)
        self.refreshed = 0

    def refresh(self):
        self.refreshed += 1

    def keys(self):
        return set(self._keys)


class TestCheckpointResume:
    def test_load_checkpoint_missing_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    @pytest.mark.parametrize(
        "content",
        [b"not json", b'{"kind": "something-else"}', b"[1,2,3]", b"\xff\xfe"],
    )
    def test_load_checkpoint_garbage_fails_loudly(self, tmp_path, content):
        path = tmp_path / "ckpt.json"
        path.write_bytes(content)
        with pytest.raises(CampaignError, match="ckpt.json"):
            load_checkpoint(path)

    def test_recover_diffs_against_store_not_checkpoint(self):
        checkpoint = {
            "payloads": {"a": {"job": 1}, "b": {"job": 2}, "c": {"job": 3}},
            # Deliberately claims everything done; the store knows better.
            "completed": ["a", "b", "c"],
            "poisoned": {"c": "kills workers"},
        }
        store = _StubStore(keys={"a"})
        pending = recover_pending_payloads(checkpoint, store)
        assert store.refreshed == 1  # stale view refreshed first
        assert pending == {"b": {"job": 2}}  # a: in store; c: poisoned

    def test_checkpoint_written_and_resumed(self, tmp_path):
        checkpoint = tmp_path / "coordinator-checkpoint.json"
        with Coordinator(checkpoint=checkpoint) as coordinator:
            coordinator.submit(tiny_payloads(3))
            job = request(coordinator.address, {"type": "pull", "worker": "w"})
            request(
                coordinator.address,
                {
                    "type": "result",
                    "lease": job["lease"],
                    "key": job["key"],
                    "result": {"r": 0},
                    "elapsed": 0.0,
                },
            )
            done_key = job["key"]
        # "Crash": the first coordinator is gone; its checkpoint survives.
        state = load_checkpoint(checkpoint)
        assert set(state["payloads"]) == {"k0", "k1", "k2"}
        assert done_key in state["completed"]

        store = _StubStore(keys={done_key})
        with Coordinator(checkpoint=checkpoint) as resumed:
            assert resumed.resume_from_checkpoint(store) == 2
            served = set()
            for _ in range(2):
                job = request(resumed.address, {"type": "pull", "worker": "w2"})
                served.add(job["key"])
                request(
                    resumed.address,
                    {
                        "type": "result",
                        "lease": job["lease"],
                        "key": job["key"],
                        "result": {"r": 1},
                        "elapsed": 0.0,
                    },
                )
            assert served == {"k0", "k1", "k2"} - {done_key}
            assert len(list(resumed.results(timeout_s=10))) == 2
            # Every submitted job resolved: stragglers are told to stop.
            assert request(resumed.address, {"type": "pull", "worker": "late"})[
                "type"
            ] == "shutdown"

    def test_resume_restores_attempt_counters(self, tmp_path):
        checkpoint = tmp_path / "ckpt.json"
        with Coordinator(checkpoint=checkpoint, max_attempts=2) as coordinator:
            coordinator.submit(tiny_payloads(1))
            job = request(coordinator.address, {"type": "pull", "worker": "w"})
            request(
                coordinator.address,
                {
                    "type": "error",
                    "lease": job["lease"],
                    "key": job["key"],
                    "message": "boom",
                },
            )
            coordinator._write_checkpoint(force=True)
        with Coordinator(checkpoint=checkpoint, max_attempts=2) as resumed:
            assert resumed.resume_from_checkpoint() == 1
            job = request(resumed.address, {"type": "pull", "worker": "w"})
            assert job["type"] == "job"
            # One pre-crash attempt + this one exhausts max_attempts=2.
            request(
                resumed.address,
                {
                    "type": "error",
                    "lease": job["lease"],
                    "key": job["key"],
                    "message": "boom again",
                },
            )
            with pytest.raises(CampaignError, match="failed on every attempt"):
                list(resumed.results(timeout_s=10))

    def test_resume_without_checkpoint_path_rejected(self):
        with Coordinator() as coordinator:
            with pytest.raises(CampaignError, match="no checkpoint path"):
                coordinator.resume_from_checkpoint()


class TestQuarantine:
    def test_poisoned_job_parks_instead_of_failing(self, tmp_path):
        telemetry_path = tmp_path / "events.jsonl"
        with telemetry(telemetry_path, campaign="quarantine-test"):
            with Coordinator(quarantine=True, max_attempts=2) as coordinator:
                coordinator.submit(tiny_payloads(2))
                healthy = {}
                for _ in range(3):  # k-poison twice (exhausts), k-healthy once
                    job = request(coordinator.address, {"type": "pull", "worker": "w"})
                    if job["key"] == "k0":
                        request(
                            coordinator.address,
                            {
                                "type": "error",
                                "lease": job["lease"],
                                "key": job["key"],
                                "message": "kills every worker",
                            },
                        )
                    else:
                        request(
                            coordinator.address,
                            {
                                "type": "result",
                                "lease": job["lease"],
                                "key": job["key"],
                                "result": {"ok": 1},
                                "elapsed": 0.0,
                            },
                        )
                        healthy[job["key"]] = True
                assert healthy  # the non-poisoned job completed
                delivered = []
                with pytest.raises(CampaignError, match="quarantined") as excinfo:
                    for item in coordinator.results(timeout_s=10):
                        delivered.append(item)
                # The healthy job was still delivered before the raise.
                assert [key for key, _, _ in delivered] == ["k1"]
                assert "k0"[:12] in str(excinfo.value)
                assert coordinator.poisoned == {"k0": "kills every worker"}
                # Workers polling afterwards are told the campaign is over.
                assert request(
                    coordinator.address, {"type": "pull", "worker": "late"}
                )["type"] == "shutdown"
        stats = load_telemetry_stats(telemetry_path).distributed
        assert stats.poisoned == 1


class TestWorkerResilience:
    def test_heartbeat_surfaces_connection_trouble(self):
        # Point the heartbeat at a dead port: every renewal fails, but the
        # thread must survive and report through the trouble event.
        heartbeat = _Heartbeat("tcp://127.0.0.1:1", lease=1, interval_s=0.05)
        try:
            assert heartbeat.trouble.wait(timeout=5.0)
            assert heartbeat.last_error is not None
            assert heartbeat._thread.is_alive()
        finally:
            heartbeat.stop()
        assert not heartbeat._thread.is_alive()

    def test_heartbeat_stops_when_lease_lost(self):
        with Coordinator() as coordinator:
            coordinator.submit(tiny_payloads(1))
            request(coordinator.address, {"type": "pull", "worker": "w"})
            # Renew a lease id the coordinator never granted.
            heartbeat = _Heartbeat(coordinator.address, lease=999, interval_s=0.05)
            try:
                assert heartbeat.lease_lost.wait(timeout=5.0)
            finally:
                heartbeat.stop()

    def test_reconnector_backoff_is_seeded_and_budgeted(self):
        first = _Reconnector("w", budget_s=60.0, base_s=0.001, max_s=0.002, seed=4)
        second = _Reconnector("w", budget_s=60.0, base_s=0.001, max_s=0.002, seed=4)
        error = OSError("refused")
        for _ in range(4):
            assert first.backoff(error) and second.backoff(error)
        assert first._delay == second._delay
        exhausted = _Reconnector("w", budget_s=0.0, base_s=0.001, max_s=0.002)
        assert exhausted.backoff(error) is False

    def test_worker_survives_coordinator_restart(self, tmp_path):
        """Satellite: a coordinator restart mid-campaign must look like a
        transient outage to the worker — it backs off, reconnects to the
        reborn coordinator on the same port, and finishes the job."""
        spec = CampaignSpec(
            name="restart-test",
            workloads=("gcc",),
            base_settings=fast_settings(num_accesses=400),
        )
        from repro.campaign.execution import payload_for

        payloads = {job.key: payload_for(job) for job in spec.jobs()}
        telemetry_path = tmp_path / "events.jsonl"
        with telemetry(telemetry_path, campaign=spec.name):
            first = Coordinator(lease_timeout_s=5.0)
            port = int(first.address.rsplit(":", 1)[1])
            session = current()
            executed_holder = {}

            def work():
                with activate(session):
                    executed_holder["executed"] = run_worker(
                        first.address,
                        worker_id="survivor",
                        reconnect_timeout_s=30.0,
                        backoff_base_s=0.05,
                        backoff_max_s=0.2,
                        frame_timeout_s=2.0,
                    )

            worker = threading.Thread(target=work)
            worker.start()
            # Let the worker make first contact (it polls "wait" replies).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and "survivor" not in first.workers_seen:
                time.sleep(0.02)
            assert "survivor" in first.workers_seen
            first.close()  # crash: port goes dark while the worker polls
            # Hold the port dark until the worker has observably entered its
            # backoff loop (FileSink appends are unbuffered, so the event is
            # visible the moment it is emitted).
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if "worker.reconnect" in telemetry_path.read_text():
                    break
                time.sleep(0.02)
            assert "worker.reconnect" in telemetry_path.read_text()

            second = Coordinator(address=f"tcp://127.0.0.1:{port}")
            try:
                second.submit(payloads)
                results = list(second.results(timeout_s=60))
                assert len(results) == 1
                # Keep serving until the worker's next pull sees "shutdown",
                # so it exits promptly instead of burning its outage budget.
                worker.join(timeout=60)
                assert not worker.is_alive()
            finally:
                second.close()
        assert executed_holder["executed"] == 1
        stats = load_telemetry_stats(telemetry_path).distributed
        assert stats.reconnects >= 1
        assert "survivor" in stats.workers


class TestTornWriteRecovery:
    def test_torn_append_heals_to_clean_bytes(self, tmp_path):
        """A torn store append (partial line + crash) is repaired on reopen
        and a re-run converges to the exact bytes of an unfaulted run."""
        spec = CampaignSpec(
            name="torn-test",
            workloads=("gcc",),
            base_settings=fast_settings(num_accesses=400),
        )
        clean = ResultStore(tmp_path / "clean.jsonl")
        run_campaign(spec, store=clean, backend="serial")

        torn_path = tmp_path / "torn.jsonl"
        with inject_faults(FaultPlan(torn_write_at=(1,))) as injector:
            with pytest.raises(FaultInjected, match="torn append"):
                run_campaign(spec, store=ResultStore(torn_path), backend="serial")
        assert injector.fired["torn_write"] == 1
        # The torn file holds a strict prefix of the clean entry line.
        assert 0 < len(torn_path.read_bytes()) < len(
            (tmp_path / "clean.jsonl").read_bytes()
        )

        # Reopening repairs the truncated tail (warning) and re-running,
        # unfaulted, converges to byte-identical store content.
        with pytest.warns(RuntimeWarning, match="truncated"):
            healed = ResultStore(torn_path)
            assert set(healed.keys()) == set()
        run_campaign(spec, store=healed, backend="serial")
        assert torn_path.read_bytes() == (tmp_path / "clean.jsonl").read_bytes()
