"""The rules for reading outside text, ``corpus.parse_json`` and
``corpus.read_lines``, and for reading provider replies, in
:mod:`slimrag.remote`: hostile JSON against every parser and every CLI
command that reads one, hostile replies against every caller of a
provider, and the one line rule (only ``\\n`` ends a line)."""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from conftest import fuzz_examples
from slimrag import index, remote
from slimrag.cli import main
from slimrag.corpus import ingest_corpus, parse_json, read_lines
from slimrag.embedding import EmbedderConfig, EmbeddingCache, embed, embed_many
from slimrag.errors import (
    DuplicateDocumentError,
    MalformedRecordError,
    ProviderError,
    ProviderProtocolError,
    SlimRagError,
)
from slimrag.evalharness import EvalExample, load_hotpotqa_detailed, run_eval
from slimrag.extraction import (
    ExtractorConfig,
    decompose_query,
    extract_entities,
    load_aliases,
    load_gazetteer,
)
from slimrag.index import build_index, load_index

# Hostile JSON texts. Each goes into an input as the whole document (or
# line), and in place of HOSTILE in that input's otherwise valid record.
HOSTILE_JSON = {
    "5001-digit-integer": "1" * 5001,
    "nested-100000-deep": "[" * 100_000,
    "lone-surrogate-escape": '"\\ud800"',
    "nan": "NaN",
    "truncated": '{"doc_id": "a", "te',
}
RECORDS = {
    "corpus": '{"doc_id": "a", "text": HOSTILE}',
    "dataset": '[{"_id": "q", "question": HOSTILE, "supporting_facts": [["T", 0]], '
               '"context": [["T", ["Vertex Labs built the annex."]]]}]',
    "cache": '{"embedder": "e", "digest": "d", "vector": [HOSTILE]}',
    "reply": "[HOSTILE]",
}

# Each parser and the errors it documents. The cache's ValueError must name
# the line; a bare ValueError from the decoder would not.
PARSERS = {
    "corpus": (lambda path: ingest_corpus(read_lines(path)),
               (MalformedRecordError, DuplicateDocumentError)),
    "dataset": (load_hotpotqa_detailed, MalformedRecordError),
    "index": (load_index, SlimRagError),
    "cache": (EmbeddingCache, ValueError),
    "reply": (lambda path: remote.parse_json_array(path.read_text()), ProviderProtocolError),
}

CORPUS_LINE = '{"doc_id": "d1", "text": "A crew from Vertex Labs built the annex."}'


@pytest.fixture(scope="module")
def index_text(tmp_path_factory) -> str:
    """A small valid index file's text."""
    root = tmp_path_factory.mktemp("index")
    (root / "corpus.jsonl").write_text(CORPUS_LINE + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "build", "--corpus", str(root / "corpus.jsonl"),
                     "--out", str(root / "index.json")]) == 0
    return (root / "index.json").read_text(encoding="utf-8")


def _hostile(kind: str, place: str, case: str, index_text: str) -> bytes:
    """The hostile text ``case`` as a whole input of ``kind``, or in its
    record (an index's in place of its segmentation value)."""
    if place == "whole":
        record = "HOSTILE"
    elif kind == "index":
        record = index_text.replace('"segmentation":"sentence"', '"segmentation":HOSTILE')
    else:
        record = RECORDS[kind]
    return record.replace("HOSTILE", HOSTILE_JSON[case]).encode() + b"\n"


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("place", ["whole", "inside"])
@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_hostile_json_loads_or_raises_the_parsers_documented_error(
    tmp_path, index_text, parser, place, case
):
    """Fix for the 5,001-digit integer in the corpus, dataset and reply
    parsers, which raised a bare ValueError past the interpreter's digit
    limit; a pin for every other pair."""
    path = tmp_path / "input"
    path.write_bytes(_hostile(parser, place, case, index_text))
    load, documented = PARSERS[parser]
    try:
        load(path)
    except documented as exc:
        if parser == "cache":
            assert str(exc) == f"embedding cache {path}: line 1 is damaged"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("case", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("place", ["whole", "inside"])
@pytest.mark.parametrize(
    "command", ["index-build", "index-add", "index-stats", "retrieve", "eval", "cache"]
)
def test_hostile_json_through_the_cli_exits_0_or_2_with_one_error_line(
    tmp_path, index_text, command, place, case
):
    """Pin: every command that reads a corpus, an index, a dataset or a
    cache file exits 0, or 2 with exactly one ``error:`` line."""
    good_index = tmp_path / "good.json"
    good_index.write_text(index_text, encoding="utf-8")
    kind = {"index-build": "corpus", "index-add": "corpus", "index-stats": "index",
            "retrieve": "index", "eval": "dataset", "cache": "cache"}[command]
    source = tmp_path / "input"
    source.write_bytes(_hostile(kind, place, case, index_text))
    output = str(tmp_path / "out.json")
    query = ["--query", "Who built the annex?"]
    argv = {
        "index-build": ["index", "build", "--corpus", str(source), "--out", output],
        "index-add": ["index", "add", "--index", str(good_index), "--corpus", str(source)],
        "index-stats": ["index", "stats", "--index", str(source)],
        "retrieve": ["retrieve", "--index", str(source), *query],
        "eval": ["eval", "--dataset", str(source), "--report", output],
        "cache": ["retrieve", "--index", str(good_index), *query, "--cache", str(source)],
    }[command]
    code, err = _run(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, reason",
    [
        (b'["caf\xe9"]', "not UTF-8 (invalid continuation byte at byte 5)"),
        ("[1,", "invalid JSON (Expecting value)"),
        ("[" * 100_000, "JSON nested too deeply"),
        ("1" * 5001, "JSON integer has too many digits"),
    ],
    ids=["not-utf8", "invalid", "nested", "digits"],
)
def test_parse_json_raises_value_error_with_a_short_reason(text, reason):
    if reason.endswith("digits") and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    with pytest.raises(ValueError) as caught:
        parse_json(text)
    assert type(caught.value) is ValueError and str(caught.value) == reason


# Number texts for the shared parse: both zeros, the least subnormal, an
# upper-case exponent, texts past the float range, integers and the repr of
# any finite float. The fixed texts are drawn often, so texts repeat.
_NUMBER_TEXTS = st.one_of(
    st.sampled_from(["0.0", "-0.0", "5e-324", "1E5", "1e400", "-1e400",
                     "0.5", "-2.5e-3", "1.0E+2", "0", "-0", "7"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers().map(str),
)
_JSON_TEXTS = st.recursive(
    _NUMBER_TEXTS,
    lambda children: st.one_of(
        st.lists(children).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(children).map(
            lambda items: "{" + ",".join(f'"k{i}":{x}' for i, x in enumerate(items)) + "}"
        ),
    ),
)


def _same(a: object, b: object) -> bool:
    """Equal with the same type all the way down, floats by ``float.hex``,
    so ``0.0`` and ``-0.0`` differ."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a.hex() == b.hex()
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    return a == b


@settings(max_examples=fuzz_examples(300), deadline=None)
@given(text=_JSON_TEXTS, bound=st.sampled_from([0, 1, 3, 65_536]))
@example(text="[0.0, -0.0, 0.0, -0.0]", bound=65_536)
@example(text="[5e-324, 1E5, 1e400, 1E5, 1e400, 7, 7]", bound=1)
def test_shared_parse_equals_parse_json(text, bound):
    """The memo of number texts, at its own bound and at smaller ones, parses
    every document as ``parse_json`` does: same types, same floats bit for
    bit, and it never holds more than its bound."""
    memo = index._SharedFloats()
    with mock.patch.object(index, "_SHARED_FLOATS", bound):
        shared = parse_json(text, memo.__getitem__)
    assert _same(shared, parse_json(text)) and len(memo) <= bound


def test_saved_local_index_parses_to_one_float_per_distinct_component(
    tmp_path, index_text, monkeypatch
):
    """The loader's parse of a saved local index shares one float object
    among the components that spell the same number text."""
    parsed = []
    from_document = index._from_document

    def spy(document):
        rows = document["vectors"]["entries"].values()
        parsed.append([x for row in rows for x in row])
        return from_document(document)

    monkeypatch.setattr(index, "_from_document", spy)
    path = tmp_path / "index.json"
    path.write_text(index_text, encoding="utf-8")
    load_index(path)
    [components] = parsed
    distinct_texts = {repr(x) for x in components}
    assert len(distinct_texts) < len(components)
    assert len({id(x) for x in components}) == len(distinct_texts)


def test_index_nested_as_deep_as_the_parser_allows_is_an_index_error(
    tmp_path, index_text
):
    """Pin: a member nested as deeply as the parser accepts, where the
    loader turns it into a string, raises a SlimRagError: converting it
    recurses no deeper than parsing it did."""
    depth = 1
    while True:
        try:
            json.loads("[" * (depth + 1) + "]" * (depth + 1))
        except RecursionError:
            break
        depth += 1
    path = tmp_path / "index.json"
    for member in ('"schema":"slimrag-index/v1"', '"segmentation":"sentence"',
                   '"gazetteer":[]'):
        key = member.split(":")[0]
        for nested in range(depth - 4, depth + 1):
            value = "[" * nested + "]" * nested
            path.write_text(index_text.replace(member, f"{key}:{value}"),
                            encoding="utf-8")
            with pytest.raises(SlimRagError):
                load_index(path)


# Hostile provider replies. A value case stands as one row's vector in an
# embeddings reply, as the content of a chat reply and as a cache line's
# vector; a body case spoils a whole reply (or cache line) that is
# otherwise good.
HOSTILE_VALUES = {
    "string": '"0.5"',
    "bool": "[true]",
    "null": "[null]",
    "nan": "[NaN]",
    "infinity": "[Infinity, 0.5]",
    "all-zeros": "[0, 0.0, -0.0]",
    "int-past-float-range": "[1" + "0" * 400 + "]",
    "non-string-item": '["vertex labs", 1]',
}
HOSTILE_REPLIES = sorted([*HOSTILE_VALUES, "not-utf8", "nested-100000-deep"])
LOCAL_16 = EmbedderConfig(dimension=16)


def _spoiled(case: str | None, make, good: str) -> bytes:
    """``make(value)``, a JSON object's text, with the hostile value of
    ``case`` or, for no case or a body case, with ``good``; a body case
    then spoils the whole text."""
    if case == "nested-100000-deep":
        return b"[" * 100_000
    text = make(HOSTILE_VALUES.get(case, good)).encode()
    if case == "not-utf8":
        return text[:-1] + b', "model": "caf\xe9"}'
    return text


class _Provider:
    """Answers provider requests in-process: with good replies (local
    vectors of dimension 16, one entity), spoiled by ``case`` for each
    request that holds ``poisoned``, or for every request when it is
    None."""

    def __init__(self):
        self.case: str | None = None
        self.poisoned: str | None = None

    def post(self, url, **kwargs):
        payload = kwargs["json"]
        texts = payload.get("input") or [payload["messages"][-1]["content"]]
        case = self.case if self.poisoned in (None, *texts) else None
        if url.endswith("/embeddings"):
            rows = [json.dumps(list(embed(t, LOCAL_16))) for t in texts]
            bad = texts.index(self.poisoned) if self.poisoned in texts else 0

            def make(value):
                rows[bad] = value
                return '{"data": [%s]}' % ", ".join('{"embedding": %s}' % r for r in rows)

            body = _spoiled(case, make, rows[bad])
        else:
            body = _spoiled(
                case,
                lambda value: '{"choices": [{"message": {"content": %s}}]}'
                % json.dumps(value),
                '["vertex labs"]',
            )
        response = requests.Response()
        response.status_code = 200
        response._content = body
        return response


@pytest.fixture
def provider(monkeypatch):
    fake = _Provider()
    monkeypatch.setattr(requests, "post", fake.post)
    monkeypatch.setenv(remote.API_BASE_ENV, "http://127.0.0.1:9/v1")
    monkeypatch.setenv(remote.API_KEY_ENV, "test-key")
    return fake


@pytest.mark.parametrize("case", HOSTILE_REPLIES)
class TestHostileReply:
    """Every hostile reply is a ProviderProtocolError wherever it arrives,
    with the outcome documented for its caller. Fixes: a zero, NaN or
    Infinity vector passed ``embed_batch``, and ``embed_many`` then raised
    ZeroVectorError or a bare ValueError; a decomposition reply dropped an
    item that is not a string; a body that is not UTF-8 was decoded by
    guessing its encoding. Every other pair is a pin."""

    REMOTE = EmbedderConfig(provider="remote")

    def test_embed_batch(self, provider, case):
        provider.case = case
        with pytest.raises(ProviderProtocolError):
            remote.embed_batch(["vertex labs", "ember corp"])

    def test_embed_many_caches_nothing(self, provider, tmp_path, case):
        provider.case = case
        cache = EmbeddingCache(tmp_path / "cache.jsonl")
        with pytest.raises(ProviderProtocolError):
            embed_many(["vertex labs", "ember corp"], self.REMOTE, cache)
        assert len(cache) == 0 and not cache.path.exists()

    @pytest.mark.parametrize("call", [extract_entities, decompose_query])
    def test_list_reply(self, provider, case, call):
        provider.case = case
        with pytest.raises(ProviderProtocolError):
            call("Who built the annex for Vertex Labs?", ExtractorConfig(provider="remote"))

    @pytest.mark.parametrize("stage, done", [("extraction", 0), ("embedding", 2)])
    def test_build_index_aborts_with_its_progress(self, provider, case, stage, done):
        provider.case = case
        corpus = ingest_corpus(
            [CORPUS_LINE, '{"doc_id": "d2", "text": "Analysts met Ember Corp."}']
        )
        extractor = ExtractorConfig(provider="remote" if stage == "extraction" else "local")
        with pytest.raises(ProviderError) as caught:
            build_index(corpus, extractor, self.REMOTE)
        assert str(caught.value).startswith(
            f"index build aborted ({done}/2 chunks processed): "
        )
        assert type(caught.value.__cause__) is ProviderProtocolError

    def test_run_eval_counts_the_example_as_failed(self, provider, case):
        examples = [
            EvalExample(
                f"q{n}", f"Who built the annex for {name}?", frozenset({(name, 0)}),
                ((name, (f"{name} built the annex.",)),),
            )
            for n, name in enumerate(["Vertex Labs", "Ember Corp"])
        ]
        good = run_eval(examples, ExtractorConfig(), self.REMOTE)
        provider.case, provider.poisoned = case, examples[0].question
        report = run_eval(examples, ExtractorConfig(), self.REMOTE)
        assert report.failed_count == 1 and report.per_example[0].failed
        assert report.per_example[1] == good.per_example[1]
        assert not good.per_example[1].failed and good.per_example[1].score.recall == 1.0

    def test_cache_line_is_damaged(self, tmp_path, case):
        path = tmp_path / "cache.jsonl"
        line = _spoiled(
            case,
            lambda value: '{"embedder": "e", "digest": "d2", "vector": %s}' % value,
            "[0.5]",
        )
        path.write_bytes(b'{"embedder": "e", "digest": "d1", "vector": [0.5]}\n' + line + b"\n")
        with pytest.raises(ValueError) as caught:
            EmbeddingCache(path)
        assert str(caught.value) == f"embedding cache {path}: line 2 is damaged"


class TestLineRule:
    """Only ``\\n`` ends a line; a ``\\r`` before it is stripped and a lone
    ``\\r`` is whitespace."""

    def test_lone_cr_between_tokens_builds_the_same_index(self, tmp_path):
        """Fix: the CLI read the corpus with universal newlines, which ended
        the record at the ``\\r`` (``error: line 1: invalid JSON``)."""
        outputs = []
        for gap in (" ", "\r"):
            corpus = tmp_path / "corpus.jsonl"
            corpus.write_bytes(
                f'{{"doc_id": "a",{gap}"text": "Vertex Labs built it."}}\n'.encode()
            )
            out = tmp_path / f"index{len(outputs)}.json"
            code, err = _run(["index", "build", "--corpus", str(corpus), "--out", str(out)])
            assert (code, err) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cache_line_with_lone_cr_between_tokens_loads(self, tmp_path):
        """Fix: the cache split its lines with ``bytes.splitlines``, which
        ended the line at the ``\\r`` and reported it damaged."""
        path = tmp_path / "cache.jsonl"
        digest = EmbeddingCache.digest("a")
        path.write_bytes(
            f'{{"embedder": "e",\r"digest": "{digest}", "vector": [1.5, -2.0]}}\n'.encode()
        )
        cache = EmbeddingCache(path)
        assert len(cache) == 1 and cache.get("e", "a") == (1.5, -2.0)

    @pytest.mark.parametrize("reader", ["corpus", "cache", "gazetteer", "aliases"])
    def test_crlf_line_ends_read_as_lf(self, tmp_path, reader):
        lines = {
            "corpus": [CORPUS_LINE, '{"doc_id": "d2", "text": "Ember Corp sold it."}'],
            "cache": [
                f'{{"embedder": "e", "digest": "{EmbeddingCache.digest(text)}", '
                f'"vector": [{vector}]}}'
                for text, vector in (("a", "1.0"), ("b", "2.0, 0.5"))
            ],
            "gazetteer": ["graphene", "New  York"],
            "aliases": ["VL\tVertex Labs", "Ember\tEmber Corp"],
        }[reader]
        def cached(path):
            cache = EmbeddingCache(path)
            return [cache.get("e", text) for text in "ab"]

        load = {
            "corpus": lambda path: ingest_corpus(read_lines(path)).chunks,
            "cache": cached,
            "gazetteer": load_gazetteer,
            "aliases": load_aliases,
        }[reader]
        results = []
        for end in ("\n", "\r\n"):
            path = tmp_path / f"{reader}{len(results)}.txt"
            path.write_bytes("".join(line + end for line in lines).encode())
            results.append(load(path))
        assert results[0] == results[1] and len(results[0]) == 2
        assert None not in results[0]


class TestLoneSurrogate:
    """A string holding a lone surrogate, which no UTF-8 encodes, is
    rejected where it enters, naming its line or entry."""

    @pytest.mark.parametrize(
        "record, key",
        [('{"doc_id": "a\\udfff", "text": "Vertex Labs met Ember Corp."}', "doc_id"),
         ('{"doc_id": "a", "text": "Vertex Labs met \\ud800 Ember Corp."}', "text"),
         ('{"doc_id": "a", "position": 0, "text": "Vertex Labs met \\udc00."}', "text")],
        ids=["doc-id", "text", "pre-chunked-text"],
    )
    def test_corpus_record_names_its_line(self, tmp_path, record, key):
        path = tmp_path / "corpus.jsonl"
        path.write_text(CORPUS_LINE + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError) as caught:
            ingest_corpus(read_lines(path))
        assert str(caught.value) == f"line 2: {key} holds a lone surrogate"

    def test_index_build_names_the_line_and_writes_no_index(self, tmp_path):
        """Fix: the record built, and ``save_index`` then failed to encode it
        (``error: 'utf-8' codec can't encode character '\\ud800'``)."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"doc_id": "a", "text": "Vertex Labs met \\ud800 Ember Corp."}\n',
            encoding="utf-8",
        )
        out = tmp_path / "index.json"
        code, err = _run(["index", "build", "--corpus", str(corpus), "--out", str(out)])
        assert (code, err) == (2, "error: line 1: text holds a lone surrogate\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["question", "_id", "title", "sentence"])
    def test_dataset_entry_is_named(self, tmp_path, field):
        """Fix for the question: it loaded, and the local embedder then
        failed to encode it outside the per-example failure count."""
        title, sentence = "T", "Vertex Labs built the annex."
        entry = {"_id": "q", "question": "Who built the annex?"}
        if field == "title":
            title = "T\ud800"
        elif field == "sentence":
            sentence = "Vertex Labs \udc00 built it."
        else:
            entry[field] += "\udfff"
        entry.update(supporting_facts=[[title, 0]], context=[[title, [sentence]]])
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps([entry]), encoding="ascii")  # \u escapes
        with pytest.raises(MalformedRecordError) as caught:
            load_hotpotqa_detailed(path)
        assert str(caught.value) == (
            "entry 0: its question, _id, a title or a sentence holds a lone surrogate"
        )

    def test_provider_reply_is_a_protocol_error(self):
        """Fix: an entity reply holding one was kept, and embedding it then
        raised a bare UnicodeEncodeError."""
        with pytest.raises(ProviderProtocolError) as caught:
            remote.parse_json_array('["vertex labs", "ember \\ud800 corp"]')
        assert str(caught.value).startswith("provider reply holds a lone surrogate: ")
