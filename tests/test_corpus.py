from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voiceforge.adapters.mocks import MockTranscodeAdapter
from voiceforge.audio import AudioClip
from voiceforge.corpus import (
    CV_COLUMNS,
    CommonVoiceWriter,
    CorpusEntry,
    LjWriter,
    SplitSpec,
    client_id_for,
    make_clip_id,
    read_common_voice,
    read_common_voice_split,
    read_lj,
    read_lj_split,
    split_train_valid,
    write_common_voice,
    write_lj,
)
from voiceforge.errors import IntegrityWarning, ParseError, ValidationError
from voiceforge.preprocess import AudioFormat, transcode

SPLIT = SplitSpec(valid_fraction=0.2, seed=13)


def _audio(format: AudioFormat, seed: int = 0):
    rng = np.random.default_rng(seed)
    clip = AudioClip(
        samples=rng.uniform(-0.5, 0.5, 4000).astype(np.float32), sample_rate_hz=8000
    )
    return transcode(clip, format, MockTranscodeAdapter())


def _lj_entries(n: int) -> tuple[list[CorpusEntry], dict]:
    entries, audio = [], {}
    for i in range(n):
        clip_id = make_clip_id("src", i)
        entries.append(
            CorpusEntry(
                clip_id=clip_id,
                relative_audio_path=f"wavs/{clip_id}.wav",
                sentence=f"वाक्य संख्या {i}",
            )
        )
        audio[clip_id] = _audio(AudioFormat.WAV_PCM16, seed=i)
    return entries, audio


def _cv_entries(n: int) -> tuple[list[CorpusEntry], dict]:
    entries, audio = [], {}
    for i in range(n):
        clip_id = make_clip_id("gen", i)
        entries.append(
            CorpusEntry(
                clip_id=clip_id,
                relative_audio_path=f"clips/{clip_id}.mp3",
                sentence=f"नमस्ते दुनिया {i}",
                client_id=client_id_for("speaker-a"),
                locale="hi",
            )
        )
        audio[clip_id] = _audio(AudioFormat.MP3, seed=100 + i)
    return entries, audio


class TestIdentifiers:
    def test_clip_id_is_zero_padded(self):
        assert make_clip_id("abc123", 7) == "abc123_000007"

    def test_clip_ids_sort_with_index(self):
        ids = [make_clip_id("s", i) for i in (2, 10, 100000)]
        assert ids == sorted(ids)

    def test_client_id_is_sha256(self):
        ref = "prompt-digest-x"
        assert client_id_for(ref) == hashlib.sha256(ref.encode("utf-8")).hexdigest()


class TestSplitSpec:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ValidationError):
            SplitSpec(valid_fraction=fraction, seed=0)

    def test_seed_bounds(self):
        with pytest.raises(ValidationError):
            SplitSpec(valid_fraction=0.5, seed=2**64)


class TestSplitTrainValid:
    def test_ten_entries_at_point_two(self):
        entries, _ = _lj_entries(10)
        train, valid = split_train_valid(entries, SPLIT)
        assert len(train) == 8
        assert len(valid) == 2

    def test_half_up_rounding_on_odd_counts(self):
        entries, _ = _lj_entries(5)
        train, valid = split_train_valid(entries, SplitSpec(valid_fraction=0.5, seed=1))
        assert len(valid) == 3  # round(2.5) goes up, not to even

    def test_single_entry_with_half_fraction_goes_to_valid(self):
        entries, _ = _lj_entries(1)
        train, valid = split_train_valid(entries, SplitSpec(valid_fraction=0.5, seed=1))
        assert train == []
        assert len(valid) == 1

    def test_partition_is_exact_and_order_preserving(self):
        entries, _ = _lj_entries(30)
        train, valid = split_train_valid(entries, SPLIT)
        merged = {e.clip_id for e in train} | {e.clip_id for e in valid}
        assert merged == {e.clip_id for e in entries}
        assert len(train) + len(valid) == len(entries)
        original_order = [e.clip_id for e in entries]
        assert [e.clip_id for e in train] == [
            i for i in original_order if i in {e.clip_id for e in train}
        ]

    def test_same_seed_same_assignment(self):
        entries, _ = _lj_entries(40)
        first = split_train_valid(entries, SPLIT)
        second = split_train_valid(entries, SPLIT)
        assert first == second

    def test_different_seed_different_assignment(self):
        entries, _ = _lj_entries(200)
        _, valid_a = split_train_valid(entries, SplitSpec(valid_fraction=0.2, seed=1))
        _, valid_b = split_train_valid(entries, SplitSpec(valid_fraction=0.2, seed=2))
        assert {e.clip_id for e in valid_a} != {e.clip_id for e in valid_b}

    def test_membership_ignores_input_order(self):
        entries, _ = _lj_entries(25)
        _, valid_fwd = split_train_valid(entries, SPLIT)
        _, valid_rev = split_train_valid(list(reversed(entries)), SPLIT)
        assert {e.clip_id for e in valid_fwd} == {e.clip_id for e in valid_rev}

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            split_train_valid([], SPLIT)


class TestLjLayout:
    def test_writer_produces_expected_tree(self, tmp_path):
        entries, audio = _lj_entries(10)
        write_lj(entries, audio, tmp_path, SPLIT)
        assert len(list((tmp_path / "wavs").glob("*.wav"))) == 10
        train_lines = (tmp_path / "train.txt").read_text(encoding="utf-8").splitlines()
        valid_lines = (tmp_path / "valid.txt").read_text(encoding="utf-8").splitlines()
        assert len(train_lines) == 8
        assert len(valid_lines) == 2
        for line in train_lines + valid_lines:
            rel, sentence = line.split("|")
            assert rel.startswith("wavs/")
            assert rel.endswith(".wav")
            assert sentence

    def test_round_trip(self, tmp_path):
        entries, audio = _lj_entries(10)
        write_lj(entries, audio, tmp_path, SPLIT)
        back = read_lj(tmp_path)
        assert sorted(back, key=lambda e: e.clip_id) == sorted(
            entries, key=lambda e: e.clip_id
        )

    def test_split_membership_survives_round_trip(self, tmp_path):
        entries, audio = _lj_entries(10)
        write_lj(entries, audio, tmp_path, SPLIT)
        train, valid = read_lj_split(tmp_path)
        expected_train, expected_valid = split_train_valid(entries, SPLIT)
        assert [e.clip_id for e in train] == [e.clip_id for e in expected_train]
        assert [e.clip_id for e in valid] == [e.clip_id for e in expected_valid]

    def test_pipe_in_sentence_rejected(self, tmp_path):
        entries, audio = _lj_entries(1)
        bad = CorpusEntry(
            clip_id=entries[0].clip_id,
            relative_audio_path=entries[0].relative_audio_path,
            sentence="left | right",
        )
        with pytest.raises(ValidationError, match="delimiter"):
            write_lj([bad], audio, tmp_path, SPLIT)

    def test_newline_in_sentence_rejected(self, tmp_path):
        entries, audio = _lj_entries(1)
        bad = CorpusEntry(
            clip_id=entries[0].clip_id,
            relative_audio_path=entries[0].relative_audio_path,
            sentence="two\nlines",
        )
        with pytest.raises(ValidationError, match="newline"):
            write_lj([bad], audio, tmp_path, SPLIT)

    def test_missing_audio_rejected(self, tmp_path):
        entries, audio = _lj_entries(2)
        del audio[entries[1].clip_id]
        with pytest.raises(ValidationError, match="no audio"):
            write_lj(entries, audio, tmp_path, SPLIT)

    def test_wrong_payload_format_rejected(self, tmp_path):
        entries, audio = _lj_entries(1)
        audio[entries[0].clip_id] = _audio(AudioFormat.MP3)
        with pytest.raises(ValidationError, match="writer needs wav"):
            write_lj(entries, audio, tmp_path, SPLIT)

    def test_rewrite_removes_stale_wavs(self, tmp_path):
        entries, audio = _lj_entries(3)
        write_lj(entries, audio, tmp_path, SPLIT)
        write_lj(entries[:2], {k: audio[k] for k in list(audio)[:2]}, tmp_path, SPLIT)
        names = {p.name for p in (tmp_path / "wavs").glob("*.wav")}
        assert names == {f"{e.clip_id}.wav" for e in entries[:2]}

    def test_malformed_line_names_path_and_line(self, tmp_path):
        entries, audio = _lj_entries(2)
        write_lj(entries, audio, tmp_path, SPLIT)
        manifest = tmp_path / "train.txt"
        manifest.write_text("wavs/a.wav|ok\nwavs/b.wav|too|many\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_lj(tmp_path)

    def test_duplicate_clip_id_across_manifests_rejected(self, tmp_path):
        entries, audio = _lj_entries(2)
        write_lj(entries, audio, tmp_path, SPLIT)
        line = f"wavs/{entries[0].clip_id}.wav|siyā\n"
        for name in ("train.txt", "valid.txt"):
            (tmp_path / name).write_text(line, encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            read_lj(tmp_path)

    def test_missing_wav_triggers_warning(self, tmp_path):
        entries, audio = _lj_entries(3)
        write_lj(entries, audio, tmp_path, SPLIT)
        (tmp_path / "wavs" / f"{entries[0].clip_id}.wav").unlink()
        with pytest.warns(IntegrityWarning, match="referenced but missing"):
            read_lj(tmp_path)

    def test_orphan_wav_triggers_warning(self, tmp_path):
        entries, audio = _lj_entries(3)
        write_lj(entries, audio, tmp_path, SPLIT)
        (tmp_path / "wavs" / "stray.wav").write_bytes(b"RIFF")
        with pytest.warns(IntegrityWarning, match="not referenced"):
            read_lj(tmp_path)


class TestCommonVoiceLayout:
    def test_writer_produces_expected_tree(self, tmp_path):
        entries, audio = _cv_entries(5)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        assert len(list((tmp_path / "clips").glob("*.mp3"))) == 5
        assert (tmp_path / "README.md").is_file()
        for name in ("train.tsv", "dev.tsv"):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            assert lines[0] == "\t".join(CV_COLUMNS)

    def test_rows_carry_fabricated_votes(self, tmp_path):
        entries, audio = _cv_entries(3)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        rows = (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            fields = row.split("\t")
            assert fields[3] == "2"
            assert fields[4] == "0"

    def test_readme_mentions_vote_fabrication(self, tmp_path):
        entries, audio = _cv_entries(1)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        text = (tmp_path / "README.md").read_text(encoding="utf-8")
        assert "up_votes" in text
        assert "placeholder" in text

    def test_round_trip_preserves_metadata(self, tmp_path):
        entries, audio = _cv_entries(6)
        entries[2] = CorpusEntry(
            clip_id=entries[2].clip_id,
            relative_audio_path=entries[2].relative_audio_path,
            sentence=entries[2].sentence,
            client_id=entries[2].client_id,
            age="thirties",
            gender="female",
            accents="standard",
            locale="hi",
            segment="batch-1",
            extra={"variant": "studio"},
        )
        write_common_voice(entries, audio, tmp_path, SPLIT)
        back = read_common_voice(tmp_path)
        assert sorted(back, key=lambda e: e.clip_id) == sorted(
            entries, key=lambda e: e.clip_id
        )

    def test_extra_columns_appear_sorted_after_standard_ones(self, tmp_path):
        entries, audio = _cv_entries(2)
        entries[0] = CorpusEntry(
            clip_id=entries[0].clip_id,
            relative_audio_path=entries[0].relative_audio_path,
            sentence=entries[0].sentence,
            extra={"zeta": "1", "alpha": "2"},
        )
        write_common_voice(entries, audio, tmp_path, SPLIT)
        header = (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header.split("\t") == list(CV_COLUMNS) + ["alpha", "zeta"]

    def test_empty_optional_fields_read_back_as_none(self, tmp_path):
        entries, audio = _cv_entries(1)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        [entry] = read_common_voice(tmp_path)
        assert entry.age is None
        assert entry.gender is None
        assert entry.segment is None
        assert entry.locale == "hi"

    def test_tab_in_sentence_rejected(self, tmp_path):
        entries, audio = _cv_entries(1)
        bad = CorpusEntry(
            clip_id=entries[0].clip_id,
            relative_audio_path=entries[0].relative_audio_path,
            sentence="has\ttab",
        )
        with pytest.raises(ValidationError, match="tab"):
            write_common_voice([bad], audio, tmp_path, SPLIT)

    def test_header_mismatch_is_a_parse_error(self, tmp_path):
        entries, audio = _cv_entries(2)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        manifest = tmp_path / "train.tsv"
        body = manifest.read_text(encoding="utf-8").splitlines()[1:]
        manifest.write_text(
            "\n".join(["speaker\tfile\ttext"] + body) + "\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="standard columns"):
            read_common_voice(tmp_path)

    def test_short_row_names_its_line(self, tmp_path):
        entries, audio = _cv_entries(3)
        write_common_voice(entries, audio, tmp_path, SplitSpec(0.2, 13))
        manifest = tmp_path / "train.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[2] = "only\tthree\tfields"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_common_voice(tmp_path)

    def test_non_integer_votes_are_a_parse_error(self, tmp_path):
        entries, audio = _cv_entries(1)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        manifest = tmp_path / "dev.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        if len(lines) == 1:
            manifest = tmp_path / "train.tsv"
            lines = manifest.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        fields[3] = "many"
        lines[1] = "\t".join(fields)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="integers"):
            read_common_voice(tmp_path)

    def test_missing_manifest_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="missing"):
            read_common_voice_split(tmp_path)

    def test_rewrite_removes_stale_clips(self, tmp_path):
        entries, audio = _cv_entries(4)
        write_common_voice(entries, audio, tmp_path, SPLIT)
        keep = entries[:2]
        write_common_voice(keep, {e.clip_id: audio[e.clip_id] for e in keep}, tmp_path, SPLIT)
        names = {p.name for p in (tmp_path / "clips").glob("*.mp3")}
        assert names == {f"{e.clip_id}.mp3" for e in keep}


# Property tests over the streaming writers. Text is arbitrary Unicode minus
# the characters each layout reserves; a reserved character must be refused
# before any file is written.
PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)
CV_RESERVED, LJ_RESERVED = "\t\n\r", "|\n\r"


def _text(reserved: str, min_size: int = 1):
    chars = st.characters(exclude_categories=("Cs",), exclude_characters=reserved)
    return st.text(chars, min_size=min_size, max_size=20)


def _sentence(reserved: str):
    return _text(reserved).filter(lambda text: text.strip())


@st.composite
def cv_entry(draw, index: int) -> CorpusEntry:
    optional = st.none() | _text(CV_RESERVED)
    extra_values = _text(CV_RESERVED)
    return CorpusEntry(
        clip_id=make_clip_id("prop", index),
        relative_audio_path="",
        sentence=draw(_sentence(CV_RESERVED)),
        client_id=draw(_text(CV_RESERVED, min_size=0)),
        up_votes=draw(st.integers(0, 10**6)),
        down_votes=draw(st.integers(0, 10**6)),
        **{name: draw(optional) for name in ("age", "gender", "accents", "locale", "segment")},
        extra=draw(st.dictionaries(st.sampled_from(["variant", "x_note"]), extra_values)),
    )


@st.composite
def cv_entry_lists(draw) -> list[CorpusEntry]:
    return [draw(cv_entry(i)) for i in range(draw(st.integers(1, 6)))]


@st.composite
def lj_entry_lists(draw) -> list[CorpusEntry]:
    sentences = draw(st.lists(_sentence(LJ_RESERVED), min_size=1, max_size=6))
    return [
        CorpusEntry(clip_id=make_clip_id("prop", i), relative_audio_path="", sentence=sentence)
        for i, sentence in enumerate(sentences)
    ]


def _files(root: Path) -> list[Path]:
    return [p for p in root.rglob("*") if p.is_file()]


class TestStreamingWriterProperties:
    @PROPERTY_SETTINGS
    @given(entries=cv_entry_lists())
    def test_common_voice_round_trip_is_the_identity(self, entries):
        encoded = _audio(AudioFormat.MP3)
        with tempfile.TemporaryDirectory() as tmp:
            writer = CommonVoiceWriter(tmp)
            for entry in entries:
                writer.add(entry, encoded)
            writer.finish(SPLIT)
            train, valid = read_common_voice_split(tmp)
        assert (train, valid) == split_train_valid(writer.entries, SPLIT)
        assert [e.relative_audio_path for e in writer.entries] == [
            f"clips/{e.clip_id}.mp3" for e in entries
        ]

    @PROPERTY_SETTINGS
    @given(entries=lj_entry_lists())
    def test_lj_round_trip_is_the_identity(self, entries):
        encoded = _audio(AudioFormat.WAV_PCM16)
        with tempfile.TemporaryDirectory() as tmp:
            writer = LjWriter(tmp)
            for entry in entries:
                writer.add(entry, encoded)
            writer.finish(SPLIT)
            train, valid = read_lj_split(tmp)
        assert (train, valid) == split_train_valid(writer.entries, SPLIT)
        assert [e.sentence for e in writer.entries] == [e.sentence for e in entries]

    @PROPERTY_SETTINGS
    @given(
        entries=cv_entry_lists(),
        reserved=st.sampled_from(CV_RESERVED),
        field=st.sampled_from(["sentence", "client_id", "age", "locale"]),
        data=st.data(),
    )
    def test_common_voice_refuses_tab_or_newline_before_writing(self, entries, reserved, field, data):
        i = data.draw(st.integers(0, len(entries) - 1))
        value = getattr(entries[i], field) or ""
        at = data.draw(st.integers(0, len(value)))
        entries[i] = replace(entries[i], **{field: value[:at] + reserved + value[at:] + "x"})
        encoded = _audio(AudioFormat.MP3)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValidationError, match="tab or newline"):
                write_common_voice(entries, {e.clip_id: encoded for e in entries}, tmp, SPLIT)
            assert _files(Path(tmp)) == []
            writer = CommonVoiceWriter(tmp)
            with pytest.raises(ValidationError, match="tab or newline"):
                writer.add(entries[i], encoded)
            assert _files(Path(tmp)) == []

    @PROPERTY_SETTINGS
    @given(entries=lj_entry_lists(), reserved=st.sampled_from(LJ_RESERVED), data=st.data())
    def test_lj_refuses_pipe_or_newline_before_writing(self, entries, reserved, data):
        i = data.draw(st.integers(0, len(entries) - 1))
        sentence = entries[i].sentence
        at = data.draw(st.integers(0, len(sentence)))
        entries[i] = replace(entries[i], sentence=sentence[:at] + reserved + sentence[at:])
        encoded = _audio(AudioFormat.WAV_PCM16)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValidationError, match="delimiter|newline"):
                write_lj(entries, {e.clip_id: encoded for e in entries}, tmp, SPLIT)
            assert _files(Path(tmp)) == []
            writer = LjWriter(tmp)
            with pytest.raises(ValidationError, match="delimiter|newline"):
                writer.add(entries[i], encoded)
            assert _files(Path(tmp)) == []
