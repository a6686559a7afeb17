"""Hash-chained credit ledger tests with independent digest oracles."""
import gc
import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tdgsim.cli import main
from tdgsim.engine import World
from tdgsim.ledger import (GENESIS_PREV, AuditError, CreditBlock, Ledger,
                           LedgerError, _split, parse_ledger_lines,
                           split_credits)

import reference_ledger
from ledger_balances import balance, balances


def test_block_digest_matches_hand_computed_sha256():
    payload = "0|" + "0" * 64 + "|wu00001|a:500,b:500|7"
    expected = hashlib.sha256(payload.encode()).hexdigest()
    assert Ledger().commit("wu00001", 1000, ["b", "a"], 7).hash == expected


def test_split_even():
    assert split_credits(900, ["a", "b", "c"]) == [("a", 300), ("b", 300), ("c", 300)]


def test_split_remainder_goes_to_lowest_ids():
    assert split_credits(10, ["b", "a", "c"]) == [("a", 4), ("b", 3), ("c", 3)]
    assert split_credits(2, ["z", "y", "x"]) == [("x", 1), ("y", 1), ("z", 0)]


def test_split_rejects_bad_input():
    with pytest.raises(LedgerError):
        split_credits(100, [])
    with pytest.raises(LedgerError):
        split_credits(-1, ["a"])
    with pytest.raises(LedgerError):
        split_credits(100, ["a", "a"])


@given(st.integers(0, 10**9),
       st.sets(st.text(st.characters(min_codepoint=97, max_codepoint=122),
                       min_size=1, max_size=6), min_size=1, max_size=20))
def test_split_conserves_total_and_stays_fair(total, agents):
    allocs = split_credits(total, sorted(agents))
    amounts = [mc for _, mc in allocs]
    assert sum(amounts) == total
    assert max(amounts) - min(amounts) <= 1


def build_ledger():
    ledger = Ledger()
    ledger.append_block("wu0", [("a", 600), ("b", 400)], 3)
    ledger.append_block("wu1", [("b", 1000)], 4)
    ledger.append_block("wu2", split_credits(999, ["a", "b", "c"]), 9)
    return ledger


def test_chain_links_and_verifies():
    ledger = build_ledger()
    assert ledger.blocks[0].prev_hash == GENESIS_PREV
    assert ledger.blocks[1].prev_hash == ledger.blocks[0].hash
    assert ledger.verify_chain() is None


def test_append_checks_expected_total():
    ledger = Ledger()
    with pytest.raises(LedgerError):
        ledger.append_block("wu0", [("a", 1)], 1, expected_total=2)


def test_tampered_amount_is_detected():
    ledger = build_ledger()
    victim = ledger.blocks[1]
    ledger.blocks[1] = CreditBlock(victim.index, victim.prev_hash, victim.wu,
                                   (("b", 999),), victim.tick, victim.hash)
    assert ledger.verify_chain() == 1
    with pytest.raises(AuditError):
        balances(ledger)


def test_truncating_tail_keeps_prefix_valid():
    ledger = build_ledger()
    ledger.blocks.pop()
    assert ledger.verify_chain() is None  # append-only model: prefix stands


def test_balances_and_totals():
    ledger = build_ledger()
    credit = balances(ledger)
    assert credit == {"a": 600 + 333, "b": 400 + 1000 + 333, "c": 333}
    assert sum(credit.values()) == ledger.total_committed() == 2999
    assert balance(ledger, "nobody") == 0


def test_export_parse_round_trip():
    ledger = build_ledger()
    lines = list(ledger.export_lines())
    parsed = parse_ledger_lines(lines)
    assert parsed.blocks == ledger.blocks
    assert parsed.verify_chain() is None


def test_parse_rejects_malformed_line():
    with pytest.raises(LedgerError):
        parse_ledger_lines(["not a ledger line"])


@pytest.mark.parametrize("field, bad", [(0, "1x"), (3, "a:2.5"), (3, "a:100,b:"),
                                        (4, "x9")])
def test_parse_names_the_line_of_a_non_integer_field(field, bad):
    lines = list(build_ledger().export_lines())
    parts = lines[1].split(" ")
    parts[field] = bad
    lines[1] = " ".join(parts)
    with pytest.raises(LedgerError, match=r"^line 2: .*not an integer"):
        parse_ledger_lines(lines)


def test_parse_handles_agent_ids_with_dashes():
    ledger = Ledger()
    ledger.append_block("wu0", [("rel-003", 250), ("rel-011", 250)], 2)
    parsed = parse_ledger_lines(ledger.export_lines())
    assert parsed.verify_chain() is None
    assert balances(parsed) == {"rel-003": 250, "rel-011": 250}


def two_block_lines():
    ledger = Ledger()
    ledger.append_block("wu0", [("b", 500)], 7)
    ledger.append_block("wu1", [("a", 250), ("b", 250)], 8)
    return list(ledger.export_lines())


# parse_ledger_lines pauses the cyclic collector, which is sound only while
# the blocks it builds hold no reference cycle.
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("bad", [False, True], ids=["ok", "raises"])
def test_parse_makes_no_cyclic_garbage_and_restores_the_collector(enabled, bad):
    lines = two_block_lines() + ["not a ledger line"] * bad
    was_enabled = gc.isenabled()
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    try:
        if bad:
            with pytest.raises(LedgerError, match="^line 3: "):
                parse_ledger_lines(lines)
        else:
            parse_ledger_lines(lines)
        assert gc.isenabled() is enabled
        assert gc.collect() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Each spelling reads as the number that was hashed (index 0, amount 500,
# tick 7 on line 1; amount 250 on line 2), so only the parser can reject it.
@pytest.mark.parametrize("lineno, field, spelling", [
    (1, 4, "+7"), (1, 3, "b:0500"), (1, 3, "b:5_00"), (1, 3, "b:\u0665\u0660\u0660"),
    (1, 3, "b:500\t"), (1, 0, "00"), (2, 3, "a:250,b:+250")])
def test_parse_rejects_an_integer_in_any_other_spelling(lineno, field, spelling):
    lines = two_block_lines()
    parts = lines[lineno - 1].split(" ")
    assert int(spelling.rpartition(":")[2]) == int(parts[field].rpartition(":")[2])
    parts[field] = spelling
    lines[lineno - 1] = " ".join(parts)
    with pytest.raises(LedgerError,
                       match=rf"^line {lineno}: .*not an integer in plain form"):
        parse_ledger_lines(lines)


def test_cli_verify_ledger_exits_3_on_a_respelled_tick(tmp_path, capsys):
    lines = two_block_lines()
    path = tmp_path / "ledger.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify-ledger", str(path)]) == 0
    capsys.readouterr()
    parts = lines[0].split(" ")
    parts[4] = "+7"
    path.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n", encoding="utf-8")
    assert main(["verify-ledger", str(path)]) == 3
    assert capsys.readouterr().err.startswith("ledger parse error: line 1: ")


# A line loses only its line ending, and empty lines may only follow the
# last block.
@pytest.mark.parametrize("make, lineno", [
    (lambda l0, l1: ["   ", l0, "", "\r", l1], 1),
    (lambda l0, l1: [l0, "", "\r", l1], 2),
    (lambda l0, l1: [l0, "\r", l1, ""], 2),
    (lambda l0, l1: [l0 + " ", l1], 1),
    (lambda l0, l1: [l0, " " + l1], 2),
], ids=["spaces before line 1", "empty lines between blocks", "CR between blocks",
        "trailing space", "leading space"])
def test_parse_names_a_line_that_is_neither_a_block_nor_after_the_last(make, lineno):
    with pytest.raises(LedgerError, match=rf"^line {lineno}: "):
        parse_ledger_lines(make(*two_block_lines()))


@pytest.mark.parametrize("text, lineno", [
    ("{0}\n{1}\n", None), ("{0}\n{1}", None), ("{0}\r\n{1}\r\n\n\n", None),
    ("   \n{0}\n\n\r\n{1}\n", 1), ("{0}\n\n\r\n{1}\n", 2)],
    ids=["final newline", "no final newline", "CRLF and empty lines at the end",
         "spaces before line 1", "empty lines between blocks"])
def test_cli_verify_ledger_accepts_empty_lines_only_at_the_end(tmp_path, capsys, text, lineno):
    path = tmp_path / "ledger.txt"
    path.write_bytes(text.format(*two_block_lines()).encode())
    code = main(["verify-ledger", str(path)])
    if lineno is None:
        assert code == 0
    else:
        assert code == 3
        assert capsys.readouterr().err.startswith(f"ledger parse error: line {lineno}: ")


def test_cli_verify_ledger_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    lines = [line.encode() for line in build_ledger().export_lines()]
    lines[2] = lines[2].replace(b"wu2", b"wu\xff2")
    path = tmp_path / "ledger.txt"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    assert main(["verify-ledger", str(path)]) == 3
    assert capsys.readouterr().err == "ledger parse error: line 3: not UTF-8\n"


def six_block_lines():
    ledger = Ledger()
    for i in range(6):
        ledger.append_block(f"wu{i}", [("a", 100 * i)], i + 1)
    return [line.encode() for line in ledger.export_lines()]


@pytest.mark.parametrize("first", [2, 4])
def test_cli_verify_ledger_names_the_first_bad_line_in_file_order(tmp_path, capsys, first):
    # A respelled tick on line `first`, and a byte that is not UTF-8 on
    # line 5: whichever comes first is named.
    lines = six_block_lines()
    parts = lines[first - 1].split(b" ")
    parts[4] = b"+" + parts[4]
    lines[first - 1] = b" ".join(parts)
    lines[4] = lines[4].replace(b"wu4", b"wu\xff4")
    path = tmp_path / "ledger.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["verify-ledger", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"ledger parse error: line {first}: ")
    lines[first - 1] = six_block_lines()[first - 1]  # only the byte is left
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["verify-ledger", str(path)]) == 3
    assert capsys.readouterr().err == "ledger parse error: line 5: not UTF-8\n"


def test_cli_verify_ledger_names_an_empty_line_above_a_line_that_is_not_utf8(
        tmp_path, capsys):
    # Only empty lines may follow an empty line, and line 4 is not one.
    lines = six_block_lines()[:2] + [b"", b"\xff"]
    path = tmp_path / "ledger.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["verify-ledger", str(path)]) == 3
    assert capsys.readouterr().err.startswith("ledger parse error: line 3: an empty line")


def engine_stand_in():
    """What `World._validate_unit` reads: a base credit of 1 (so a work
    unit's complexity is its credit), the ledger, the tick, `emit`, the
    open-unit count, and the tables of credits and of one-entry allocation
    dicts that it fills."""
    host = SimpleNamespace(config=SimpleNamespace(base_credit_millis=1),
                           ledger=Ledger(), tick=0, events=[], open_wus=10**6,
                           credits={}, allocation_dicts={})
    host.emit = lambda kind, **payload: World.emit(host, kind, **payload)
    return host


def outcome(commit):
    try:
        commit()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return None


AGENT = st.text("abwxyz0123456789-", min_size=1, max_size=6)
PARTICIPANTS = st.lists(AGENT, min_size=1, max_size=6, unique=True)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 10**9), PARTICIPANTS), min_size=1, max_size=30))
def test_commit_gives_what_the_reference_commit_gives(commits):
    host, reference = engine_stand_in(), reference_ledger.Ledger()
    for n, (total, participants) in enumerate(commits):
        host.tick = n // 3 + 1
        wu = SimpleNamespace(id=f"wu{n:05d}", complexity=total)
        World._validate_unit(host, wu, participants, participants, True)
        assert host.open_wus == 10**6 - n - 1
        expected = reference_ledger.commit_credit(reference, wu.id, total,
                                                  participants, host.tick)
        committed, validated = host.events[-2:]
        assert (committed.tick, committed.kind, committed.payload["wu"]) == (
            host.tick, "credit_committed", wu.id)
        assert list(committed.payload["allocations"].items()) == list(expected.items())
        assert (validated.tick, validated.kind, validated.payload["wu"],
                validated.payload["credit"]) == (host.tick, "wu_validated", wu.id, total)
    assert host.ledger.blocks == reference.blocks
    assert list(host.ledger.export_lines()) == list(reference.export_lines())
    assert host.ledger.verify_chain() is None


BAD_COMMITS = st.one_of(
    st.tuples(st.integers(-10**9, 10**9), st.just([])),
    st.tuples(st.integers(-10**9, -1), PARTICIPANTS),
    st.tuples(st.integers(-10**9, 10**9),
              PARTICIPANTS.flatmap(lambda ps: st.permutations(ps + ps[:1]))))


@given(BAD_COMMITS)
def test_a_bad_commit_fails_as_the_reference_commit_fails(bad):
    total, participants = bad
    host, reference = engine_stand_in(), reference_ledger.Ledger()
    wu = SimpleNamespace(id="wu00000", complexity=total)
    expected = outcome(lambda: reference_ledger.commit_credit(
        reference, wu.id, total, participants, 1))
    assert expected is not None and expected[0] is LedgerError
    assert outcome(lambda: World._validate_unit(
        host, wu, participants, participants, True)) == expected
    assert host.ledger.blocks == [] and host.events == [] and host.open_wus == 10**6


# `Ledger.commit` no longer re-sums a split: `_split` hands out base x n
# plus the remainder, which is the total.  It must split, and fail, as the
# reference split does on any total and any list, empty, repeating an
# agent or not.
@settings(max_examples=300)
@given(st.integers(-10**9, 10**9), st.lists(st.text("abc", min_size=1, max_size=2),
                                            max_size=8))
def test_the_split_gives_what_the_reference_split_gives(total, participants):
    expected = outcome(lambda: reference_ledger.split_credits(total, participants))
    assert outcome(lambda: _split(total, participants)) == expected
    if expected is None:
        allocations = _split(total, participants)
        assert allocations == tuple(reference_ledger.split_credits(total, participants))
        assert sum(mc for _, mc in allocations) == total


# Fields of 0, 1 and several participants, drawn from a few per ledger so
# that fields and ticks repeat, as they do in a centralized ledger.
FIELD = st.lists(st.tuples(AGENT, st.integers(0, 10**6)), max_size=4,
                 unique_by=lambda pair: pair[0]).map(tuple)


def _respell_amount(parts, draw):
    if parts[3] != "-":
        pairs = parts[3].split(",")
        j = draw(st.integers(0, len(pairs) - 1))
        agent, _, mc = pairs[j].rpartition(":")
        pairs[j] = f"{agent}:0{mc}"
        parts[3] = ",".join(pairs)


def _change_amount(parts, draw):
    if parts[3] != "-":
        agent, _, mc = parts[3].rpartition(":")
        parts[3] = f"{agent}:{int(mc) + 1}"


def _respell(field):
    def respell(parts, draw):
        parts[field] = draw(st.sampled_from(["0", "+", " "])) + parts[field]
    return respell


# Each changes one line's fields in place; a line that is a repeat of an
# earlier field is the one changed when there is one.
LINE_MUTATIONS = {
    "respelled amount": _respell_amount,
    "changed amount": _change_amount,
    "respelled index": _respell(0),
    "respelled tick": _respell(4),
    "5 fields": lambda parts, draw: parts.pop(),
    "7 fields": lambda parts, draw: parts.append("x"),
}


@st.composite
def ledger_texts(draw):
    fields = draw(st.lists(FIELD, min_size=1, max_size=4))
    ticks = draw(st.lists(st.integers(0, 10**4), min_size=1, max_size=3))
    rows, prev = [], GENESIS_PREV
    for index in range(draw(st.integers(1, 12))):
        allocations, tick = draw(st.sampled_from(fields)), draw(st.sampled_from(ticks))
        wu = f"wu{index:05d}"
        digest = reference_ledger.block_digest(index, prev, wu, allocations, tick)
        alloc = ",".join(f"{agent}:{mc}" for agent, mc in allocations) or "-"
        rows.append([str(index), prev, wu, alloc, str(tick), digest])
        prev = digest
    for name in draw(st.lists(st.sampled_from(sorted(LINE_MUTATIONS)), max_size=2)):
        repeats = [k for k in range(1, len(rows))
                   if rows[k][3] in {row[3] for row in rows[:k]}]
        k = draw(st.sampled_from(repeats or range(len(rows))))
        LINE_MUTATIONS[name](rows[k], draw)
    lines = [" ".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ending = draw(st.sampled_from(["", "\n", "\r\n"]))
    return [line + ending for line in lines]


def parsed(parse, lines):
    try:
        return parse(lines).blocks
    except LedgerError as exc:
        return str(exc)


@settings(max_examples=300)
@given(ledger_texts())
def test_parse_gives_what_the_reference_parse_gives(lines):
    blocks = parsed(parse_ledger_lines, lines)
    assert blocks == parsed(reference_ledger.parse_ledger_lines, lines)
    if isinstance(blocks, str):
        return
    first_bad, prev = None, GENESIS_PREV
    for i, (index, prev_hash, wu, allocations, tick, digest) in enumerate(blocks):
        if (index, prev_hash, digest) != (i, prev, reference_ledger.block_digest(
                i, prev, wu, allocations, tick)):
            first_bad = i
            break
        prev = digest
    assert Ledger(blocks).verify_chain() == first_bad
    assert (list(Ledger(blocks).export_lines())
            == list(reference_ledger.Ledger(blocks).export_lines()))


def resummed(ledger):
    return sum(mc for block in ledger.blocks for _, mc in block.allocations)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 10**9), PARTICIPANTS), max_size=20),
       st.lists(FIELD, max_size=5))
def test_the_committed_total_is_the_sum_of_every_block(commits, appends):
    # Each read of the total sums only the blocks appended since the last.
    ledger = Ledger()
    assert ledger.total_committed() == 0
    for n, (total, participants) in enumerate(commits):
        ledger.commit(f"wu{n:05d}", total, participants, n)
        assert ledger.total_committed() == resummed(ledger)
    for n, allocations in enumerate(appends):
        ledger.append_block(f"x{n}", allocations, n)
        assert ledger.total_committed() == resummed(ledger)
    parsed_back = parse_ledger_lines(ledger.export_lines())
    assert parsed_back.total_committed() == resummed(parsed_back) == resummed(ledger)
    parsed_back.commit("wu99999", 7, ["a"], 99)
    assert parsed_back.total_committed() == resummed(ledger) + 7
