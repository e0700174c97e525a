"""``corpus/`` is what ``tools/build_corpus.py`` writes: the generator,
run into a fresh directory, must give the same files, byte for byte, and
no other, golden_key.json and manifest.json included."""

import importlib.util

from conftest import CORPUS, ROOT


def _files(root) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_the_corpus_matches_its_generator(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "build_corpus", ROOT / "tools" / "build_corpus.py")
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    build_corpus.write_corpus(tmp_path / "corpus")
    written, committed = _files(tmp_path / "corpus"), _files(CORPUS)
    assert {"golden_key.json", "manifest.json"} <= written.keys()
    assert sorted(written.keys() - committed.keys()) == []
    assert sorted(committed.keys() - written.keys()) == []
    assert [path for path in sorted(written)
            if written[path] != committed[path]] == []
