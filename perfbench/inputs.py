"""Seeded input generator for the slimrag benchmark.

Everything the benchmark feeds to slimrag is made here from one integer
seed: the same seed always gives the same bytes. Names are two words built
from syllables, so the vocabulary is large enough for entity tables of many
thousands of rows. Which name a sentence mentions follows a Zipf(1.0) law
over popularity ranks, so a few names sit in thousands of chunks and most in
a handful; queries on popular names get the most candidate chunks and set
the latency tail.

Every sentence starts with a capitalised template word that the local
extractor drops (a sentence-initial single word carries no signal) and
mentions names mid-sentence, where the extractor finds them as two-word
capitalised spans. Templates hold no pronouns, so coreference adds nothing.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random

VOCABULARY = 8000
SENTENCES_PER_DOC = 6
EVAL_DOCS = 10
EVAL_SENTENCES = 5

SYLLABLES = (
    "ka", "lo", "mir", "dun", "ve", "tor", "bel", "isk", "an", "ro",
    "sel", "vin", "thar", "mo", "qu", "ela", "dor", "fen", "gal", "hu",
    "jo", "kel", "lun", "mar", "nor", "pe", "ras", "sta", "ul", "zed",
)
OPENERS = (
    "The archive mentions", "A journal covered", "Local papers praised",
    "The exhibit featured", "A lecture examined", "Critics reviewed",
    "The council thanked", "A report described",
)
LINKS = (
    "while visiting", "together with", "after meeting", "in a dispute with",
    "on behalf of", "alongside",
)
TAILS = (
    "last spring", "during the festival", "after the merger",
    "before the audit", "in early winter", "near the coast",
)
QUESTION_TAILS = (
    "who funded the project", "who visited the coast",
    "who signed the charter", "who led the survey",
)


def _word(rng: random.Random) -> str:
    syllables = rng.randint(2, 3)
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables)).capitalize()


class Names:
    """A vocabulary of distinct two-word names drawn with probability
    proportional to 1/rank (Zipf, exponent 1.0)."""

    def __init__(self, rng: random.Random, size: int = VOCABULARY):
        names: set[str] = set()
        while len(names) < size:
            names.add(f"{_word(rng)} {_word(rng)}")
        self.ranked = sorted(names)
        rng.shuffle(self.ranked)
        self._cumulative = list(
            itertools.accumulate(1.0 / rank for rank in range(1, size + 1))
        )

    def draw(self, rng: random.Random) -> str:
        return self._at(rng.random())

    def stratified(self, rng: random.Random, count: int) -> list[str]:
        """``count`` draws, one from each of ``count`` equal slices of the
        law's probability mass, in random order: every stream then holds
        the same mix of popular and rare names, whatever the seed."""
        picks = [self._at((i + rng.random()) / count) for i in range(count)]
        rng.shuffle(picks)
        return picks

    def _at(self, quantile: float) -> str:
        point = quantile * self._cumulative[-1]
        return self.ranked[bisect.bisect_right(self._cumulative, point)]


def sentence(rng: random.Random, names: Names) -> tuple[str, list[str]]:
    """One sentence naming one or two names, and the names it uses."""
    first = names.draw(rng)
    if rng.random() < 0.5:
        return f"{rng.choice(OPENERS)} {first} {rng.choice(TAILS)}.", [first]
    second = names.draw(rng)
    text = (
        f"{rng.choice(OPENERS)} {first} {rng.choice(LINKS)} {second} "
        f"{rng.choice(TAILS)}."
    )
    return text, [first, second]


def question(rng: random.Random, first: str, second: str | None) -> str:
    if second is None:
        return f"What happened with {first}?"
    return f"What happened with {first} and {rng.choice(QUESTION_TAILS)} with {second}?"


def corpus_lines(rng: random.Random, names: Names, docs: int) -> list[str]:
    """Raw-document JSONL lines of ``SENTENCES_PER_DOC`` sentences each."""
    return [
        json.dumps(
            {
                "doc_id": f"doc-{i:05d}",
                "text": " ".join(
                    sentence(rng, names)[0] for _ in range(SENTENCES_PER_DOC)
                ),
            }
        )
        for i in range(docs)
    ]


def query_stream(rng: random.Random, names: Names, count: int) -> list[str]:
    """Questions naming two names, or one for every third question, drawn by
    the popularity law. Two thirds keep the median inside the two-name
    questions rather than at the step between one and two names."""
    pairs = count - count // 3
    firsts = names.stratified(rng, count)
    seconds = names.stratified(rng, pairs) + [None] * (count - pairs)
    rng.shuffle(seconds)
    return [question(rng, first, second) for first, second in zip(firsts, seconds)]


def eval_dataset(rng: random.Random, names: Names, examples: int) -> list[dict]:
    """HotpotQA-format entries: ``EVAL_DOCS`` documents of ``EVAL_SENTENCES``
    sentences, two gold facts in different documents, and a question that
    names one name from each gold sentence."""
    dataset = []
    for n in range(examples):
        titles = [f"Doc {n}-{d}" for d in range(EVAL_DOCS)]
        docs = [
            [sentence(rng, names) for _ in range(EVAL_SENTENCES)] for _ in titles
        ]
        facts = [[d, rng.randrange(EVAL_SENTENCES)] for d in rng.sample(range(EVAL_DOCS), 2)]
        named = [docs[d][idx][1][0] for d, idx in facts]
        dataset.append(
            {
                "_id": f"ex-{n}",
                "question": question(rng, named[0], named[1]),
                "supporting_facts": [[titles[d], idx] for d, idx in facts],
                "context": [
                    [title, [text for text, _ in doc]]
                    for title, doc in zip(titles, docs)
                ],
            }
        )
    return dataset
