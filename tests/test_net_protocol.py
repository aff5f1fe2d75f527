"""The wire protocol in isolation: framing, payload codecs, errors.

Every request/response payload must round-trip exactly — terms through
the query-side PIF path, clauses through the compiled-record path, and
stats field-for-field including the merged per-shard split — because
the loopback differential suite asserts object equality across the
wire.  Framing failures (bad magic, wrong version, oversize, truncated
payloads) must surface as :class:`ProtocolError`, never as garbage
objects or low-level struct/index errors.
"""

import random

import pytest

from repro.cluster import MergedRetrievalStats
from repro.crs import RetrievalResult, RetrievalStats, RetrievalTimeout, SearchMode
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    MAGIC,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    ProtocolError,
    RemoteError,
    ServerBusy,
    ServerDraining,
    WritesFrozen,
    decode_header,
    encode_frame,
)
from repro.storage import UnknownPredicateError
from repro.terms import Clause, read_term


def sample_stats(**overrides) -> RetrievalStats:
    fields = dict(
        mode=SearchMode.BOTH,
        residency="disk",
        clauses_total=120,
        fs1_candidates=17,
        final_candidates=9,
        disk_time_s=0.00125,
        fs1_time_s=0.0005,
        fs2_time_s=0.00025,
        fs2_search_calls=3,
        software_time_s=0.0,
        bytes_from_disk=61440,
    )
    fields.update(overrides)
    return RetrievalStats(**fields)


class TestFraming:
    def test_header_round_trip(self):
        frame = encode_frame(FrameType.REQ_RETRIEVE, 42, b"abc")
        frame_type, request_id, length = decode_header(frame[: HEADER.size])
        assert frame_type is FrameType.REQ_RETRIEVE
        assert request_id == 42
        assert length == 3
        assert frame[HEADER.size :] == b"abc"

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_unknown_frame_type_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[3] = 0x77
        with pytest.raises(ProtocolError, match="frame type"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_oversized_payload_rejected(self):
        header = HEADER.pack(
            MAGIC, protocol.VERSION, int(FrameType.REQ_RETRIEVE), 1,
            DEFAULT_MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_header(header)

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_header(b"\x00\x01")

    def test_max_frame_bytes_is_configurable(self):
        header = HEADER.pack(
            MAGIC, protocol.VERSION, int(FrameType.REQ_RETRIEVE), 1, 2048
        )
        decode_header(header, max_frame_bytes=2048)
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_header(header, max_frame_bytes=2047)


class TestRequestPayloads:
    @pytest.mark.parametrize(
        "text",
        [
            "p(a, b)",
            "p(X, Y)",
            "married_couple(X, X)",
            "p(f(g(X), [1, 2.5, -3]), \"str\", 'Funny Atom')",
            "big(A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13)",
        ],
    )
    def test_retrieve_request_round_trip(self, text):
        goal = read_term(text)
        payload = protocol.encode_retrieve_request(
            goal, SearchMode.FS1_ONLY, 1500
        )
        decoded, mode, deadline_ms = protocol.decode_retrieve_request(payload)
        assert str(decoded) == str(goal)
        assert mode is SearchMode.FS1_ONLY
        assert deadline_ms == 1500

    def test_default_mode_and_deadline(self):
        payload = protocol.encode_retrieve_request(read_term("p(a)"))
        _, mode, deadline_ms = protocol.decode_retrieve_request(payload)
        assert mode is None
        assert deadline_ms == 0

    def test_batch_request_round_trip(self):
        goals = [read_term("p(a, X)"), read_term("q(Y)"), read_term("r")]
        payload = protocol.encode_batch_request(goals, SearchMode.BOTH, 250)
        decoded, mode, deadline_ms = protocol.decode_batch_request(payload)
        assert [str(g) for g in decoded] == [str(g) for g in goals]
        assert mode is SearchMode.BOTH
        assert deadline_ms == 250

    def test_mutate_request_round_trip_with_write_id(self):
        clause = Clause(head=read_term("p(a, b)"), body=())
        payload = protocol.encode_mutate_request(
            "assertz", clause, "mod", 7, 1500, "client1:42"
        )
        op, decoded, module, version, deadline_ms, write_id = (
            protocol.decode_mutate_request(payload)
        )
        assert op == "assertz"
        assert str(decoded) == str(clause)
        assert module == "mod"
        assert version == 7
        assert deadline_ms == 1500
        assert write_id == "client1:42"

    def test_mutate_request_write_id_defaults_empty(self):
        # A frame without the trailing write_id field (an unstamped or
        # old-encoder frame) must decode as "" — not raise.
        clause = Clause(head=read_term("p(a)"), body=())
        payload = protocol.encode_mutate_request("retract", clause)
        *_, write_id = protocol.decode_mutate_request(payload)
        assert write_id == ""

    def test_shared_variables_stay_shared(self):
        # q(X, X) must decode with *one* variable bound twice, not two
        # renamed-apart variables — routing and unification key
        # variables by name within a query.
        payload = protocol.encode_retrieve_request(read_term("q(X, X)"))
        decoded, _, _ = protocol.decode_retrieve_request(payload)
        assert decoded.args[0] == decoded.args[1]
        assert decoded.args[0].name == "X"


class TestResponsePayloads:
    def result_for(self, goal_text, clause_texts, stats):
        return RetrievalResult(
            goal=read_term(goal_text),
            candidates=[
                Clause(head=read_term(text)) for text in clause_texts
            ],
            stats=stats,
        )

    def test_result_round_trip(self):
        result = self.result_for(
            "p(a, X)", ["p(a, b)", "p(a, c)"], sample_stats()
        )
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert str(decoded.goal) == str(result.goal)
        assert [str(c) for c in decoded.candidates] == [
            str(c) for c in result.candidates
        ]
        assert decoded.stats == result.stats

    def test_plain_stats_equality_is_exact(self):
        stats = sample_stats(fs1_candidates=None, mode=SearchMode.SOFTWARE)
        result = self.result_for("p(X)", [], stats)
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert type(decoded.stats) is RetrievalStats
        assert decoded.stats == stats

    def test_merged_stats_round_trip(self):
        merged = MergedRetrievalStats(
            mode=SearchMode.BOTH,
            residency="disk",
            clauses_total=40,
            fs1_candidates=8,
            final_candidates=5,
            disk_time_s=0.002,
            fs1_time_s=0.0004,
            fs2_time_s=0.0002,
            fs2_search_calls=2,
            software_time_s=0.0,
            bytes_from_disk=2048,
            shards_queried=2,
            broadcast=True,
            per_shard={
                0: sample_stats(clauses_total=25),
                3: sample_stats(clauses_total=15, fs1_candidates=None),
            },
        )
        result = self.result_for("p(X)", ["p(a)"], merged)
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert type(decoded.stats) is MergedRetrievalStats
        assert decoded.stats == merged
        assert decoded.stats.per_shard.keys() == {0, 3}

    def test_batch_response_round_trip(self):
        results = [
            self.result_for("p(a)", ["p(a)"], sample_stats()),
            self.result_for("q(X)", [], None),
        ]
        decoded = protocol.decode_batch_response(
            protocol.encode_batch_response(results)
        )
        assert len(decoded) == 2
        assert decoded[0].stats == results[0].stats
        assert decoded[1].stats is None
        assert decoded[1].candidates == []

    def test_clause_with_body_round_trips(self):
        clause = Clause(
            head=read_term("grandparent(X, Z)"),
            body=(read_term("parent(X, Y)"), read_term("parent(Y, Z)")),
        )
        result = RetrievalResult(
            goal=read_term("grandparent(A, B)"),
            candidates=[clause],
            stats=None,
        )
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert str(decoded.candidates[0]) == str(clause)


class TestPayloadCorruption:
    def make_payload(self):
        return protocol.encode_result_response(
            RetrievalResult(
                goal=read_term("p(a, X)"),
                candidates=[Clause(head=read_term("p(a, b)"))],
                stats=sample_stats(),
            )
        )

    def test_truncated_payload_raises_protocol_error(self):
        payload = self.make_payload()
        # Every possible truncation point must fail cleanly.
        for cut in range(0, len(payload) - 1, 7):
            with pytest.raises(ProtocolError):
                protocol.decode_result_response(payload[:cut])

    def test_corrupt_symbol_table_length(self):
        payload = bytearray(self.make_payload())
        payload[0:4] = (2**32 - 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            protocol.decode_result_response(bytes(payload))

    @staticmethod
    def mutation_seeds():
        rule = Clause(
            head=read_term("g(X, f(Y, [1, 2]), 'a b')"),
            body=(read_term("p(X, Y)"), read_term("q(Y, 3.5)")),
        )
        result = RetrievalResult(
            goal=read_term("g(A, f(B, C), D)"),
            candidates=[rule, Clause(head=read_term("g(a, f(b, []), c)"))],
            stats=sample_stats(),
        )
        return {
            "result": (
                protocol.encode_result_response(result),
                protocol.decode_result_response,
            ),
            "batch": (
                protocol.encode_batch_response([result, result]),
                protocol.decode_batch_response,
            ),
            "mutated": (
                protocol.encode_mutated_response(7, True, rule),
                protocol.decode_mutated_response,
            ),
            "solution": (
                protocol.encode_solution(
                    1, {"X": read_term("f(a, [b])"), "Y": read_term("g(Z)")}
                ),
                protocol.decode_solution,
            ),
        }

    @pytest.mark.parametrize("kind", ["result", "batch", "mutated", "solution"])
    def test_byte_mutations_decode_or_raise_protocol_error(self, kind):
        """Flipped, inserted and truncated bytes: a value or ProtocolError."""
        payload, decode = self.mutation_seeds()[kind]
        decode(payload)
        rng = random.Random(0)
        rejected = 0
        for _ in range(1_000):
            mutant = bytearray(payload)
            for _ in range(rng.randint(1, 4)):
                position = rng.randrange(len(mutant))
                roll = rng.random()
                if roll < 0.6:
                    mutant[position] = rng.randrange(256)
                elif roll < 0.8:
                    del mutant[position:]
                else:
                    mutant.insert(position, rng.randrange(256))
                if not mutant:
                    break
            try:
                decode(bytes(mutant))
            except ProtocolError:
                rejected += 1
        assert rejected > 0

    def test_error_payload_round_trip(self):
        payload = protocol.encode_error(
            ErrorCode.SERVER_BUSY, "21 requests already admitted"
        )
        code, message = protocol.decode_error(payload)
        assert code is ErrorCode.SERVER_BUSY
        assert "21" in message

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_error(b"\xee\x00\x00")


class TestErrorMapping:
    @pytest.mark.parametrize(
        "code,expected",
        [
            (ErrorCode.SERVER_BUSY, ServerBusy),
            (ErrorCode.DEADLINE_EXPIRED, DeadlineExceeded),
            (ErrorCode.UNKNOWN_PREDICATE, UnknownPredicateError),
            (ErrorCode.SHUTTING_DOWN, ServerDraining),
            (ErrorCode.WRITE_FROZEN, WritesFrozen),
            (ErrorCode.BAD_REQUEST, RemoteError),
            (ErrorCode.INTERNAL, RemoteError),
        ],
    )
    def test_error_to_exception(self, code, expected):
        assert isinstance(protocol.error_to_exception(code, "m"), expected)

    @pytest.mark.parametrize(
        "exc,code",
        [
            (ServerBusy("x"), ErrorCode.SERVER_BUSY),
            (DeadlineExceeded("x"), ErrorCode.DEADLINE_EXPIRED),
            (RetrievalTimeout("x"), ErrorCode.DEADLINE_EXPIRED),
            (ServerDraining("x"), ErrorCode.SHUTTING_DOWN),
            (WritesFrozen("x"), ErrorCode.WRITE_FROZEN),
            (ProtocolError("x"), ErrorCode.BAD_REQUEST),
            (ValueError("x"), ErrorCode.BAD_REQUEST),
            (RuntimeError("x"), ErrorCode.INTERNAL),
        ],
    )
    def test_exception_to_error(self, exc, code):
        got_code, _ = protocol.exception_to_error(exc)
        assert got_code is code

    def test_unknown_predicate_message_unwrapped(self):
        code, message = protocol.exception_to_error(
            UnknownPredicateError("no procedure nosuch/3")
        )
        assert code is ErrorCode.UNKNOWN_PREDICATE
        assert message == "no procedure nosuch/3"  # no KeyError repr quotes
