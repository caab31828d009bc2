"""The load cache: one validated manifest per (path, content) in a process,
re-parsed whenever the bytes change, read-only so that it may be shared,
and invisible in every report."""

from __future__ import annotations

import json

import pytest

from acmcheck import manifest as manifest_module
from acmcheck.cli import main
from acmcheck.manifest import FIXTURE_NAMES, fixture_path, load_fixture, load_manifest

from _helpers import manifest_data

POINT = "0.5,1,0.25,-0.5,0.3"


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_same_path_same_bytes_is_one_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest_data("example1")))
    first = load_manifest(path)
    assert load_manifest(path) is first
    assert load_manifest(str(path)) is first
    assert load_fixture("example2") is load_manifest(fixture_path("example2"))


def test_rewritten_file_is_parsed_again(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest_data("example1")))
    before = load_manifest(path)
    code, out, _ = _run(capsys, ["check", str(path), "--json", "--samples", "8"])
    assert code == 0 and json.loads(out)["classification"]["aqs"]["holds"] is True

    path.write_text(json.dumps(manifest_data("example2")))
    after = load_manifest(path)
    assert after is not before
    assert [str(g) for g in after.gamma] != [str(g) for g in before.gamma]
    code, out, _ = _run(capsys, ["check", str(path), "--json", "--samples", "8"])
    assert code == 0 and json.loads(out)["classification"]["aqs"]["holds"] is False


def test_same_bytes_at_two_paths_are_two_manifests(tmp_path):
    text = json.dumps(manifest_data("flat"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(text)
    b.write_text(text)
    ma, mb = load_manifest(a), load_manifest(b)
    assert ma is not mb
    assert (ma.source, mb.source) == (str(a), str(b))


def test_bad_manifest_fails_every_call_until_fixed(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(manifest_data("flat"), gamma=["y +* 2", "0", "0", "0"])))
    first = _run(capsys, ["check", str(path)])
    assert first[0] == 2 and "gamma[0]" in first[2]
    assert _run(capsys, ["check", str(path)]) == first

    path.write_text("{not json")
    code, _, err = _run(capsys, ["check", str(path)])
    assert code == 2 and "invalid JSON" in err

    path.write_text(json.dumps(manifest_data("flat")))
    assert _run(capsys, ["check", str(path)])[0] == 0


@pytest.mark.parametrize("name", ["metric_frame", "phi_frame"])
def test_loaded_arrays_are_read_only(name):
    array = getattr(load_fixture("example1"), name)
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] = array[1, 1]


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cold_and_warm_calls_print_the_same_bytes(fixture, capsys):
    calls = (
        ["check", fixture, "--json", "--samples", "32"],
        ["tensor", fixture, "--name", "K", "--at", POINT, "--json"],
        ["rank", fixture, "--at", POINT],
    )
    cache = manifest_module._manifest_from_text
    for argv in calls:
        cache.cache_clear()
        cold = _run(capsys, argv)
        warm = _run(capsys, argv)
        assert cache.cache_info()[:2] == (1, 1)  # (hits, misses): the warm call reused the manifest
        assert cold[0] in (0, 1) and cold[1]
        assert warm == cold


# ---------------------------------------------------------------------------
# The read: bytes decoded as UTF-8 with text-mode newlines, the same text
# and the same errors as Path.read_text
# ---------------------------------------------------------------------------


def _read_text_error(path) -> str:
    """The stderr line of a manifest that ``Path.read_text`` and
    ``json.loads`` reject, worded as ``load_manifest`` words it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        return f"error: <file>: cannot read {path}: {err}\n"
    except UnicodeDecodeError as err:
        return f"error: <file>: {path} is not UTF-8 text: {err}\n"
    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return f"error: <file>: invalid JSON in {path}: {err}\n"
    raise AssertionError(f"{path} reads as valid JSON")


def _crlf(text: str) -> bytes:
    return text.replace("\n", "\r\n").encode()


@pytest.mark.parametrize("case,message", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("crlf-json-error", "Expecting ',' delimiter: line 4 column 3 (char 34)"),
    ("bom", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("late-bad-byte", "can't decode byte 0xff in position 9000: invalid start byte"),
])
@pytest.mark.parametrize("command", [["check"], ["rank", "--at", POINT]], ids=["check", "rank"])
def test_read_errors_name_the_file(case, message, command, tmp_path, capsys):
    path = tmp_path / "m.json"
    if case == "directory":
        path.mkdir()
    elif case == "crlf-json-error":
        path.write_bytes(_crlf('{\n  "dimension": 5,\n  "seed": 1\n  "samples": 2\n}\n'))
    elif case == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(manifest_data("flat")).encode())
    elif case == "late-bad-byte":
        text = json.dumps(dict(manifest_data("flat"), avoid=[]), indent=1)
        path.write_bytes(text.encode()[:-1] + b" " * (9000 - len(text) + 1) + b"\xff}")
    code, out, err = _run(capsys, [command[0], str(path), *command[1:]])
    assert (code, out) == (2, "")
    assert err == _read_text_error(path)
    assert message in err and err.count("\n") == 1


def test_crlf_and_cr_manifests_read_as_their_lf_text(tmp_path, capsys):
    text = json.dumps(manifest_data("example2"), indent=2)
    paths = {}
    for name, data in (("lf", text.encode()), ("crlf", _crlf(text)), ("cr", text.replace("\n", "\r").encode())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    argv = ["tensor", "--name", "omega", "--at", POINT, "--json"]
    printed = {name: _run(capsys, [argv[0], str(path), *argv[1:]]) for name, path in paths.items()}
    assert printed["crlf"] == printed["cr"] == printed["lf"]
    assert printed["lf"][0] == 0 and printed["lf"][1]

    # an unchanged CRLF file still hits the load cache
    cache = manifest_module._manifest_from_text
    cache.cache_clear()
    first = load_manifest(paths["crlf"])
    assert load_manifest(paths["crlf"]) is first
    assert cache.cache_info()[:2] == (1, 1)
    assert _run(capsys, [argv[0], str(paths["crlf"]), *argv[1:]]) == printed["lf"]
    assert cache.cache_info()[:2] == (2, 1)
