"""The service core: sweep protocol, job state machine, queue.

Covers the queue/scheduler checklist items that need no execution:
priority ordering, per-client quota enforcement, content-addressed
job ids (idempotent dedup), journal round-trips and recovery
demotion.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.runtime import SimTask
from repro.serve import (
    Job,
    JobQueue,
    JobState,
    JobStore,
    QuotaError,
    Submission,
    SweepSpec,
    job_id_for,
)


class TestSweepSpec:
    def test_expand_is_the_cross_product(self):
        spec = SweepSpec(workloads=("spmv", "spkadd"),
                         inputs=("M1", "M2"))
        tasks = spec.expand()
        assert len(tasks) == 4
        assert {(t.workload, t.input_id) for t in tasks} == {
            ("spmv", "M1"), ("spmv", "M2"),
            ("spkadd", "M1"), ("spkadd", "M2")}

    def test_default_inputs_are_the_suite(self):
        from repro.eval.workloads import inputs_for

        tasks = SweepSpec(workloads=("spmv",)).expand()
        assert len(tasks) == len(inputs_for("spmv"))

    def test_cells_match_oneshot_cli_tasks(self):
        # the service must produce the exact cells the figure drivers
        # build, or results would not be shared through the cache
        tasks = SweepSpec(workloads=("spmv",), inputs=("M1",)).expand()
        direct = SimTask("spmv", "M1", scale="small")
        assert tasks[0].content_hash() == direct.content_hash()

    def test_machines_axis_expands(self):
        from repro.config import experiment_machine
        from repro.runtime import machine_to_dict

        machines = (
            machine_to_dict(experiment_machine("small")),
            machine_to_dict(
                experiment_machine("small").with_tmu(lanes=4)),
        )
        tasks = SweepSpec(workloads=("spmv",), inputs=("M1",),
                          machines=machines).expand()
        assert len(tasks) == 2
        assert len({t.content_hash() for t in tasks}) == 2

    def test_rejects_unknowns(self):
        with pytest.raises(ServeError):
            SweepSpec(workloads=())
        with pytest.raises(ServeError):
            SweepSpec(workloads=("spmv",), scale="huge")
        with pytest.raises(ServeError):
            SweepSpec(workloads=("spmv",), variants=("warp",))
        with pytest.raises(ServeError):
            SweepSpec(workloads=("nope",)).expand()
        with pytest.raises(ServeError):
            SweepSpec(workloads=("spmv",), inputs=("T1",)).expand()
        # variants the workload's registry entry cannot produce
        with pytest.raises(ServeError, match="cannot produce"):
            SweepSpec(workloads=("cpals",),
                      variants=("baseline", "imp")).expand()
        with pytest.raises(ServeError, match="cannot produce"):
            SweepSpec(workloads=("spmv", "spadd")).expand()
        with pytest.raises(ServeError):
            SweepSpec.from_dict({"workloads": ["spmv"], "zap": 1})

    def test_roundtrip_through_wire_dict(self):
        spec = SweepSpec(workloads=("spmv",), inputs=("M1", "M2"),
                         variants=("tmu", "baseline"))
        again = SweepSpec.from_dict(spec.as_dict())
        assert [t.content_hash() for t in again.expand()] == \
            [t.content_hash() for t in spec.expand()]

    def test_job_id_ignores_spec_phrasing(self):
        a = SweepSpec(workloads=("spmv", "spkadd"), inputs=("M1",))
        b = SweepSpec(workloads=("spkadd", "spmv"), inputs=("M1",))
        assert job_id_for(a.expand()) == job_id_for(b.expand())
        c = SweepSpec(workloads=("spmv",), inputs=("M1",))
        assert job_id_for(c.expand()) != job_id_for(a.expand())
        # an old client's wire sweep still carries the retired seed
        legacy = SweepSpec.from_dict(
            {"workloads": ["spmv"], "inputs": ["M1"], "seed": 7})
        assert job_id_for(legacy.expand()) == job_id_for(c.expand())

    def test_submission_validation(self):
        with pytest.raises(ServeError):
            Submission.from_dict({"no_sweep": {}})
        with pytest.raises(ServeError):
            Submission.from_dict({"sweep": {"workloads": ["spmv"]},
                                  "client": "../escape"})
        sub = Submission.from_dict({
            "sweep": {"workloads": ["spmv"], "inputs": ["M1"]},
            "client": "ci", "priority": 7})
        assert sub.client == "ci" and sub.priority == 7
        assert len(sub.tasks) == 1


class TestJobStateMachine:
    def test_happy_path(self):
        job = Job(id="j1", cells=["a", "b"])
        assert job.state is JobState.PENDING
        job.advance(JobState.RUNNING)
        assert job.started_at is not None
        job.advance(JobState.DONE)
        assert job.state.terminal and job.finished_at is not None

    def test_illegal_transitions_raise(self):
        job = Job(id="j1")
        with pytest.raises(ServeError):
            job.advance(JobState.DONE)       # pending -> done
        job.advance(JobState.RUNNING)
        job.advance(JobState.DONE)
        with pytest.raises(ServeError):
            job.advance(JobState.PENDING)    # done is final

    def test_reopen_resets_progress(self):
        job = Job(id="j1", cells=["a", "b"])
        job.advance(JobState.RUNNING)
        job.completed = job.simulated = 2
        job.advance(JobState.FAILED)
        job.error = "boom"
        job.reopen()
        assert job.state is JobState.PENDING
        assert job.completed == 0 and job.error is None


class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue()
        q.push("low", client="a", priority=0)
        q.push("high", client="a", priority=5)
        q.push("mid", client="a", priority=1)
        q.push("low2", client="a", priority=0)
        order = [q.pop(timeout=0.1) for _ in range(4)]
        assert order == ["high", "mid", "low", "low2"]
        assert q.pop(timeout=0.05) is None

    def test_quota_enforced_per_client(self):
        q = JobQueue(quota=2)
        q.push("j1", client="ci")
        q.push("j2", client="ci")
        with pytest.raises(QuotaError):
            q.push("j3", client="ci")
        q.push("j4", client="other")     # other clients unaffected
        q.push("j5", client="ci", enforce_quota=False)  # recovery path
        assert q.active("ci") == 3

    def test_release_frees_quota(self):
        q = JobQueue(quota=1)
        q.push("j1", client="ci")
        assert q.pop(timeout=0.1) == "j1"
        with pytest.raises(QuotaError):
            q.push("j2", client="ci")    # still active until released
        q.release("ci")
        q.push("j2", client="ci")
        assert q.pop(timeout=0.1) == "j2"

    def test_duplicate_push_keeps_one_entry(self):
        q = JobQueue()
        q.push("j1", client="ci")
        q.push("j1", client="ci")
        assert q.depth == 1
        assert q.active("ci") == 1

    def test_cancel_tombstones_queued_entry(self):
        q = JobQueue()
        q.push("j1", client="ci", priority=9)
        q.push("j2", client="ci")
        assert q.cancel("j1") is True
        q.release("ci")                  # caller owns the dead slot
        assert q.pop(timeout=0.1) == "j2"
        assert q.cancel("j2") is False   # already popped


class TestJobStore:
    def test_roundtrip_and_list(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(id="a" * 64, client="ci", cells=["h1", "h2"],
                  sweep={"workloads": ["spmv"]})
        store.put(job)
        again = store.get(job.id)
        assert again.as_dict() == job.as_dict()
        assert [j.id for j in store.list()] == [job.id]
        assert store.get("b" * 64) is None

    def test_event_journal_appends_and_pages(self, tmp_path):
        store = JobStore(tmp_path)
        store.append_event("j1", {"event": "submitted"})
        store.append_event("j1", {"event": "started"})
        events = store.events("j1")
        assert [e["event"] for e in events] == ["submitted", "started"]
        assert all("ts" in e for e in events)
        assert store.events("j1", since=1)[0]["event"] == "started"
        assert store.events("unknown") == []

    def test_recover_demotes_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        running = Job(id="r" * 64, cells=["h1"])
        running.advance(JobState.RUNNING)
        running.completed = 1
        store.put(running)
        done = Job(id="d" * 64, cells=["h1"])
        done.advance(JobState.RUNNING)
        done.advance(JobState.DONE)
        store.put(done)
        pending = store.recover()
        assert [j.id for j in pending] == [running.id]
        revived = store.get(running.id)
        assert revived.state is JobState.PENDING
        assert revived.completed == 0 and revived.requeues == 1
        events = store.events(running.id)
        assert events[-1]["event"] == "recovered"

    def test_delete_removes_record_and_journal(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(id="a" * 64)
        store.put(job)
        store.append_event(job.id, {"event": "submitted"})
        store.delete(job.id)
        assert store.get(job.id) is None
        assert store.events(job.id) == []
