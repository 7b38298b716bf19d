"""The full metrics pipeline
===========================

Run the bundled mock demo config, then compute everything the metrics
layer offers: per-round entropy and dominant share, unigram perplexity
against a reference corpus, the rank-abundance table, and embedding-based
narrative alignment. Ends by pointing at the equivalent CLI invocations.
"""

import argparse
from pathlib import Path

from hashnet import (
    HashingEmbedder,
    align_hashtags,
    build_unigram_model,
    load_narrative,
    metric_series,
    rank_abundance,
    run_simulation,
)
from hashnet.cli import build_config, load_config
from hashnet.metrics import load_reference_corpus, run_responses

HERE = Path(__file__).parent

doc, base_dir = load_config(HERE / "config_mock.json")
loaded = build_config(doc, base_dir, argparse.Namespace(seed=None, parallelism=None))
out_path = HERE / "out" / "transcript.jsonl"
out_path.parent.mkdir(parents=True, exist_ok=True)

transcript = run_simulation(loaded.run, out_path=out_path)
print(f"run {transcript.header['run_id']}: {transcript.rounds_completed()} rounds, "
      f"match rate {transcript.match_rate():.3f}")

entropy = dict(metric_series(transcript, "entropy").values)
share = dict(metric_series(transcript, "dominant_share").values)

corpus = load_reference_corpus(loaded.metrics.reference_corpus)
model = build_unigram_model(corpus)
perplexity = dict(metric_series(transcript, "perplexity", model=model).values)

print(f"\n{'round':>5}  {'entropy':>8}  {'dominant':>8}  {'perplexity':>10}")
for t in (1, 5, 10, 20, 30, 40):
    print(f"{t:>5}  {entropy[t]:>8.3f}  {share[t]:>8.2f}  {perplexity[t]:>10.2f}")

rac = rank_abundance(transcript)
print(f"\nrank abundance (full-distribution entropy {rac.entropy:.3f} bits):")
for rank, (tag, count) in enumerate(rac.table, start=1):
    print(f"  {rank:>2}. {tag:<24} {count:>4}")

narrative = load_narrative(loaded.run.narrative_path)
alignment = align_hashtags(run_responses(transcript, form="raw"), narrative, HashingEmbedder(dim=256))
print("\nnarrative alignment (hashed-trigram embedder):")
for label, count in alignment.counts.items():
    print(f"  {label:<20} {count:>4}")

print("\nsample assignments:")
for tag, (label, score) in list(alignment.assignments.items())[:5]:
    print(f"  {tag:<28} -> {label:<18} (cosine {score:.2f})")

print(f"""
Everything above is also available from the command line:

  hashnet simulate --config demos/config_mock.json
  hashnet metrics  demos/out/transcript.jsonl --config demos/config_mock.json
  hashnet report   run1.jsonl run2.jsonl --config demos/config_mock.json --out report/

Transcript written to {out_path}.
""")
