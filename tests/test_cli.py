import json
import tracemalloc

import numpy as np
import pytest

from conftest import sine, wav_bytes
from soundnet import audio_io, network, spectral
from soundnet.cli import RunConfig, _piece_ids, main


def write_tone(path, freq=440.0, seconds=3.0, rate=44100):
    audio_io.write_wav_float32(path, sine(freq, seconds, rate).astype(np.float32), rate)
    return path


def write_melody(path, seed, rate=8000, seconds=4.0, seg=0.25):
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(int(seconds / seg)):
        f = 80.0 + min(float(rng.exponential(400.0)), 3000.0)
        chunks.append(sine(f, seg, rate))
    audio_io.write_wav_float32(path, np.concatenate(chunks).astype(np.float32), rate)
    return path


MELODY_FLAGS = ["--frame-size", "1024", "--hop", "512"]


def test_analyze_synthetic_tone(tmp_path):
    wav = write_tone(tmp_path / "tone.wav")
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--out", str(out)]) == 0
    report = json.loads((out / "tone.json").read_text(encoding="utf-8"))
    nodes = report["network"]["nodes"]
    assert len(nodes) == 1
    assert nodes[0]["notes"] == ["A4", "A♯4"]
    assert report["network"]["edges"] == []
    assert report["network"]["clique_size"] == 1
    assert report["config"]["mode"] == "stft"
    assert report["sequence_length"] > 0
    assert (out / "tone.network.svg").exists()


def test_analyze_rerun_byte_identical(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=3)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--out", str(out), *MELODY_FLAGS]) == 0
    first = (out / "m.json").read_bytes()
    first_svg = (out / "m.fit.svg").read_bytes()
    assert main(["analyze", str(wav), "--out", str(out), *MELODY_FLAGS]) == 0
    assert (out / "m.json").read_bytes() == first
    assert (out / "m.fit.svg").read_bytes() == first_svg


def test_analyze_report_carries_all_seven_families(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=5)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--out", str(out), *MELODY_FLAGS]) == 0
    report = json.loads((out / "m.json").read_text(encoding="utf-8"))
    assert len(report["fit"]["families"]) == 7
    assert report["fit"]["best"] in report["fit"]["families"]


def test_analyze_silent_exit_3(tmp_path, capsys):
    wav = tmp_path / "silent.wav"
    audio_io.write_wav_float32(wav, np.zeros(44100, dtype=np.float32), 44100)
    assert main(["analyze", str(wav), "--out", str(tmp_path / "o")]) == 3
    assert "error" in capsys.readouterr().err


def test_analyze_undecodable_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", str(tmp_path / "missing.wav"), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_full_mode_above_transform_cap_exits_2_and_corpus_skips(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "MAX_FULL_FFT", 16384)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_melody(corpus_dir / "short1.wav", seed=72, seconds=2.0)
    write_melody(corpus_dir / "short2.wav", seed=73, seconds=2.0)
    wav = write_melody(corpus_dir / "long.wav", seed=74, seconds=2.5)  # 20000 samples need 32768 points
    assert main(["analyze", str(wav), "--mode", "full", "--out", str(tmp_path / "o")]) == 2
    assert "full-mode cap of 16384" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--mode", "full", "--out", str(out)]) == 0
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert corpus_json["pieces"] == ["short1", "short2"]
    assert "full-mode cap" in corpus_json["skipped"]["long"]


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_exit_2_and_corpus_skip(tmp_path, capsys, dtype, bad):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_melody(corpus_dir / "good1.wav", seed=70)
    write_melody(corpus_dir / "good2.wav", seed=71)
    x = sine(440.0, 1.0, 8000)
    x[1000] = bad
    payload = x.astype(dtype).tobytes()
    wav = corpus_dir / "bad.wav"
    wav.write_bytes(wav_bytes(payload, rate=8000, bits=8 * np.dtype(dtype).itemsize, format_code=3))
    assert main(["analyze", str(wav), "--out", str(tmp_path / "o")]) == 2
    assert "1 non-finite" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--out", str(out), *MELODY_FLAGS]) == 0
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert corpus_json["pieces"] == ["good1", "good2"]
    assert "1 non-finite" in corpus_json["skipped"]["bad"]
    assert not (out / "bad.json").exists()


def test_full_mode_flag(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=6)
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--out", str(out), "--mode", "full", "--rel-threshold", "0.01"]) == 0
    report = json.loads((out / "m.json").read_text(encoding="utf-8"))
    assert report["mode"] == "full"
    assert report["config"]["mode"] == "full"


def test_corpus_directory(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for i in range(3):
        write_melody(corpus_dir / f"piece{i}.wav", seed=20 + i)
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--out", str(out), *MELODY_FLAGS]) == 0
    for i in range(3):
        assert (out / f"piece{i}.json").exists()
    for artifact in ("corpus.summary.csv", "corpus.matrix.csv", "corpus.heatmap.svg", "corpus.cliques.svg"):
        assert (out / artifact).exists()
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert corpus_json["pieces"] == ["piece0", "piece1", "piece2"]
    assert corpus_json["skipped"] == {}


def test_corpus_duplicate_files_correlate_fully(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    src = write_melody(corpus_dir / "a.wav", seed=30)
    (corpus_dir / "b.wav").write_bytes(src.read_bytes())
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--out", str(out), *MELODY_FLAGS]) == 0
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    matrix = corpus_json["comparison"]["corr_matrix"]
    assert matrix[0][1] == 1.0


def test_corpus_mixed_good_bad(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_melody(corpus_dir / "good1.wav", seed=40)
    write_melody(corpus_dir / "good2.wav", seed=41)
    (corpus_dir / "broken.wav").write_bytes(b"garbage")
    write_tone(corpus_dir / "tone.wav", rate=8000)  # decodes, but every component is identical
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--out", str(out), *MELODY_FLAGS]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: skipping broken: file shorter than a RIFF header",
        "warning: skipping tone: all samples are identical",
    ]
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert corpus_json["skipped"] == {
        "broken": "file shorter than a RIFF header",
        "tone": "all samples are identical",
    }
    assert corpus_json["pieces"] == ["good1", "good2"]
    assert not [p.name for p in out.iterdir() if p.name.startswith(("broken.", "tone."))]


def test_corpus_empty_exit_4(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["corpus", str(empty), "--out", str(tmp_path / "o")]) == 4
    only_bad = tmp_path / "bad"
    only_bad.mkdir()
    (only_bad / "x.wav").write_bytes(b"junk")
    assert main(["corpus", str(only_bad), "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()
    for not_a_dir in (tmp_path / "missing", only_bad / "x.wav"):
        assert main(["corpus", str(not_a_dir), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(f"error: {not_a_dir}: ")


def test_corpus_independent_of_pool_size(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for i in range(3):
        write_melody(corpus_dir / f"p{i}.wav", seed=50 + i)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["corpus", str(corpus_dir), "--out", str(out1), "--jobs", "1", *MELODY_FLAGS]) == 0
    assert main(["corpus", str(corpus_dir), "--out", str(out2), "--jobs", "3", *MELODY_FLAGS]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert len(names) == 3 * 3 + 5  # per piece: JSON and two SVGs; corpus: JSON, two CSVs, two SVGs
    for name in names:
        if name.endswith(".json"):
            a = json.loads((out1 / name).read_text(encoding="utf-8"))
            b = json.loads((out2 / name).read_text(encoding="utf-8"))
            a["config"].pop("out")
            b["config"].pop("out")
            assert a == b, name
        else:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_config_file_defaults_and_flag_override(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=60)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame_size": 1024, "hop": 512, "a4_hz": 415.0}))
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--config", str(cfg), "--out", str(out), "--a4", "440.0"]) == 0
    report = json.loads((out / "m.json").read_text(encoding="utf-8"))
    assert report["config"]["frame_size"] == 1024  # from config file
    assert report["config"]["a4_hz"] == 440.0      # flag wins
    # argparse's other spellings of the same option read the same file
    for spelling in (["--config=" + str(cfg)], ["--conf", str(cfg)]):
        assert main(["analyze", str(wav), *spelling, "--out", str(out), "--a4", "440.0"]) == 0
        assert json.loads((out / "m.json").read_text(encoding="utf-8")) == report


def test_config_file_values_converted_like_flags(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=63)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frame_size": "1024", "hop": 512, "a4_hz": 440}))
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "m.json").read_text(encoding="utf-8"))
    assert report["config"]["frame_size"] == 1024
    assert report["config"]["a4_hz"] == 440


def test_whole_numbers_from_a_config_file_echo_as_the_default_floats(tmp_path):
    wav = write_melody(tmp_path / "m.wav", seed=64, seconds=3.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a4_hz": 440, "floor_db": -60}))
    out = tmp_path / "out"
    assert main(["analyze", str(wav), "--config", str(cfg), "--out", str(out)]) == 0
    from_config = (out / "m.json").read_bytes()
    assert main(["analyze", str(wav), "--out", str(out)]) == 0
    assert from_config == (out / "m.json").read_bytes()


def test_run_config_stores_whole_numbers_of_float_fields_as_floats():
    config = RunConfig(a4_hz=440, floor_db=-60, rel_threshold=1)
    assert [type(v) for v in (config.a4_hz, config.floor_db, config.rel_threshold)] == [float] * 3
    assert config == RunConfig(a4_hz=440.0, floor_db=-60.0, rel_threshold=1.0)
    assert type(RunConfig(frame_size=1024, hop=512).frame_size) is int
    with pytest.raises(ValueError):
        RunConfig(a4_hz=True)
    with pytest.raises(ValueError):
        RunConfig(floor_db=-(10**400))


@pytest.mark.parametrize(
    "text",
    [
        None,  # no such file
        "{frame_size: 1024",
        b'{"mode": "\xe9"}',  # not UTF-8
        "[]",
        '"stft"',
        '{"frame_size": 1024.0}',
        '{"frame_size": 1024, "hop": 512.5}',
        '{"top_k": 2.5}',
        '{"a4_hz": null}',
        '{"out": 5}',
    ],
)
def test_bad_config_file_exit_2(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setenv("SOUNDNET_OUT", str(tmp_path / "o"))  # no --out, which would override "out"
    wav = write_melody(tmp_path / "m.wav", seed=64)
    cfg = tmp_path / "cfg.json"
    if isinstance(text, str):
        cfg.write_text(text, encoding="utf-8")
    elif text is not None:
        cfg.write_bytes(text)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(wav), "--config", str(cfg)])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_corpus_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(tmp_path), "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --jobs: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_seed_is_not_a_config_key_or_flag(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path), "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown config keys: ['seed']" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command, str(tmp_path), "--seed", "1"])


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_out_naming_an_existing_file_exit_2(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    wav = write_melody(corpus / "m.wav", seed=65)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    target = wav if command == "analyze" else corpus
    assert main([command, str(target), "--out", str(out), *MELODY_FLAGS]) == 2
    assert main([command, str(target), "--out", str(out / "sub"), *MELODY_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: --out {out}") == 2
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("flags", [["--frame-size", str(2**17)], ["--frame-size", str(2**40)], ["--a4", "1e-300"]])
def test_out_of_range_frame_size_and_a4_exit_2_before_any_work(tmp_path, capsys, flags):
    wav = write_melody(tmp_path / "m.wav", seed=66)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(wav), "--out", str(tmp_path / "o"), *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 1 << 20  # rejected before a buffer of frame_size is made
    err = capsys.readouterr().err
    assert "frame_size must be at most 65536" in err or "a4_hz must be in [220, 880] Hz" in err
    assert not (tmp_path / "o").exists()


def test_env_var_out_dir(tmp_path, monkeypatch):
    wav = write_melody(tmp_path / "m.wav", seed=61)
    target = tmp_path / "envout"
    monkeypatch.setenv("SOUNDNET_OUT", str(target))
    assert main(["analyze", str(wav), *MELODY_FLAGS]) == 0
    assert (target / "m.json").exists()


def test_out_precedence_flag_then_config_file_then_env_var(tmp_path, monkeypatch):
    wav = write_melody(tmp_path / "m.wav", seed=61)
    monkeypatch.setenv("SOUNDNET_OUT", str(tmp_path / "a"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "b")}))
    assert main(["analyze", str(wav), "--config", str(cfg), *MELODY_FLAGS]) == 0
    assert (tmp_path / "b" / "m.json").exists() and not (tmp_path / "a").exists()
    assert main(["analyze", str(wav), "--config", str(cfg), "--out", str(tmp_path / "c"), *MELODY_FLAGS]) == 0
    assert (tmp_path / "c" / "m.json").exists() and not (tmp_path / "a").exists()


def test_selftest_command(capsys):
    assert main(["selftest", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert main(["selftest", "--seed", "7"]) == 0


def test_selftest_fail_path(monkeypatch, capsys):
    from soundnet import cli, selftest

    def broken(seed=42):
        return [selftest.CheckResult("forced", False, "corrupted build")]

    monkeypatch.setattr(cli.selftest, "run_selftest", broken)
    assert main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_piece_id_collision_suffixes(tmp_path):
    paths = [tmp_path / "x.wav", tmp_path / "sub"]
    (tmp_path / "sub").mkdir()
    a = tmp_path / "x.wav"
    b = tmp_path / "sub" / "x.wav"
    a.touch()
    b.touch()
    ids = _piece_ids([a, b])
    assert ids[a] == "x"
    assert ids[b] == "x-2"


def test_corpus_keeps_every_piece_whose_suffixed_id_is_another_stem(tmp_path):
    # sorted order: "a-2" is given to a-2.wav before a.wav collides with a.WAV
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for seed, name in enumerate(("a-2.wav", "a.WAV", "a.wav")):
        write_melody(corpus_dir / name, seed=60 + seed)
    ids = _piece_ids(sorted(corpus_dir.iterdir()))
    assert len(set(ids.values())) == 3
    assert ids[corpus_dir / "a-2.wav"] == "a-2" and ids[corpus_dir / "a.WAV"] == "a"
    out = tmp_path / "out"
    assert main(["corpus", str(corpus_dir), "--out", str(out), "--jobs", "2", *MELODY_FLAGS]) == 0
    corpus_json = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    assert len(corpus_json["pieces"]) == 3
    assert corpus_json["skipped"] == {}
    assert {p.name for p in out.glob("*.json")} == {f"{piece}.json" for piece in corpus_json["pieces"]} | {"corpus.json"}


def test_run_config_defaults_are_the_stage_defaults():
    assert RunConfig().peak_params() == spectral.PeakParams()
    assert RunConfig().grid() == network.PitchGrid()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="wavelet")
    with pytest.raises(ValueError):
        RunConfig(frame_size=1000)
    with pytest.raises(ValueError):
        RunConfig(a4_hz=-2.0)
    for bad in (
        {"a4_hz": float("nan")},
        {"a4_hz": float("inf")},
        {"a4_hz": 1e-300},
        {"frame_size": 2**17},
        {"floor_db": float("nan")},
        {"top_k": 2.5},
        {"hop": 512.5},
        {"frame_size": True},
        {"alignment": "bogus"},
        {"out": 3},
    ):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    RunConfig()
    RunConfig(floor_db=float("-inf"), a4_hz=440)  # no floor; a whole-number A4
