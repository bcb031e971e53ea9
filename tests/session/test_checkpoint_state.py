"""The checkpoint artifact: byte stability, codec validation, round trips."""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.core.registry import get_domain
from repro.errors import SessionError
from repro.parallel import ParallelSearchParams
from repro.session import SCHEMA_VERSION, SearchSession, SessionState
from repro.session.state import MAGIC
from repro.tabu import TabuSearchParams


def quick_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=2,
        clws_per_tsw=1,
        global_iterations=3,
        sync_mode="homogeneous",
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
        seed=11,
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


@pytest.fixture(scope="module")
def problem():
    return get_domain("placement").build_problem("tiny16", reference_seed=7)


@pytest.fixture(scope="module")
def paused_state(problem) -> SessionState:
    session = SearchSession(problem=problem, params=quick_params())
    session.step(1)
    return session.checkpoint()


class TestByteStability:
    def test_checkpointing_twice_produces_identical_bytes(self, problem):
        session = SearchSession(problem=problem, params=quick_params())
        session.step(1)
        assert session.checkpoint().to_bytes() == session.checkpoint().to_bytes()

    def test_bytes_roundtrip_preserves_the_state(self, paused_state):
        loaded = SessionState.from_bytes(paused_state.to_bytes())
        assert loaded.backend == paused_state.backend
        assert loaded.params == paused_state.params
        assert loaded.rounds_done == paused_state.rounds_done
        assert loaded.best_cost == paused_state.best_cost
        assert loaded.complete == paused_state.complete
        # the decoded state is itself byte-stable (fresh pickle memo tables
        # may shift bytes across a round trip, but never across two encodes)
        assert loaded.to_bytes() == loaded.to_bytes()

    def test_artifact_starts_with_magic_and_version(self, paused_state):
        blob = paused_state.to_bytes()
        assert blob[:4] == MAGIC
        (version,) = struct.unpack_from("<I", blob, 4)
        assert version == SCHEMA_VERSION


class TestCodecValidation:
    def test_rejects_truncated_blob(self):
        with pytest.raises(SessionError, match="truncated"):
            SessionState.from_bytes(b"RT")

    def test_rejects_wrong_magic(self, paused_state):
        blob = b"NOPE" + paused_state.to_bytes()[4:]
        with pytest.raises(SessionError, match="magic"):
            SessionState.from_bytes(blob)

    def test_rejects_future_schema_version(self, paused_state):
        # version 1 predates the required elastic topology fields; a newer
        # version is unknown to this build
        payload = paused_state.to_bytes()[8:]
        for version in (1, SCHEMA_VERSION + 1):
            blob = struct.pack("<4sI", MAGIC, version) + payload
            with pytest.raises(SessionError, match="schema version"):
                SessionState.from_bytes(blob)

    def test_load_rejects_non_checkpoint_file(self, tmp_path):
        target = tmp_path / "junk.rtss"
        target.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(SessionError):
            SessionState.load(target)


class TestFileRoundTrip:
    def test_save_load_roundtrip(self, paused_state, tmp_path):
        target = paused_state.save(tmp_path / "runs" / "ckpt.rtss")
        assert target.exists()
        assert target.read_bytes() == paused_state.to_bytes()
        loaded = SessionState.load(target)
        assert loaded.rounds_done == paused_state.rounds_done
        assert loaded.best_cost == paused_state.best_cost

    def test_summary_properties(self, paused_state):
        assert paused_state.rounds_done == 1
        assert paused_state.best_cost is not None
        assert not paused_state.complete

    def test_fresh_session_checkpoints_before_any_epoch(self, problem):
        state = SearchSession(problem=problem, params=quick_params()).checkpoint()
        assert state.run_state is None
        assert state.rounds_done == 0
        assert state.best_cost is None
        restored = SearchSession.restore(state)
        result = restored.run()
        assert result.complete
