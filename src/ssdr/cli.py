"""Command line entry point (``ssdr``).

Subcommands cover the full workflow: fitting and serializing an embedding,
transforming and classifying new points, running a benchmark from a config
file, generating the synthetic datasets, exporting neighborhood graphs and
the good-neighbors diagnostic.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .costs import HeatKernelSpec, _check_threshold, export_edge_list, heat_kernel_costs
from .dataset import (TOY_KINDS, _at_least, generate_balance, generate_multimodal_toy,
                      load_csv, save_csv)
from .harness import (_parse_heat, _parse_kernel, format_report, parse_config,
                      run_benchmark)
from .knn import KnnIndex, good_neighbors_score, knn_classify
from .kpca import (kpca_embed, kpca_fit, kpca_trick_fit, kpca_transform, load_kpca,
                   save_kpca)
from .solver import (BASES, LearnerSpec, UNLABEL_MODES, WEIGHTING_MODES, embed,
                     fit, load_model, save_model)


def _load(args) -> "Dataset":
    return load_csv(args.data, args.label_column, args.missing_label_token)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV, one row per example")
    p.add_argument("--label-column", default="label")
    p.add_argument("--missing-label-token", default="",
                   help="label cell value marking an unlabeled example")


def _cmd_fit(args) -> int:
    spec = LearnerSpec(
        base=args.base, unlabel=args.unlabel, gamma=args.gamma, alpha=args.alpha,
        k=args.k, dim=args.dim, weighting_mode=args.weighting,
        heat=_parse_heat(args.heat, args.heat_k), gamma_prime=args.gamma_prime,
        epsilon=args.epsilon)
    kernel = _parse_kernel(args.kernel)
    # every option is checked before the data is read and the model fitted
    if kernel is not None and not args.kpca_out:
        raise ValueError("--kpca-out is required with a kernel")
    data = _load(args)
    if kernel is not None:
        kmap, model = kpca_trick_fit(data, kernel, spec)
        save_kpca(kmap, args.kpca_out)
    else:
        model = fit(data, spec)
    save_model(model, args.out)
    print(f"model written to {args.out}"
          + (f", kernel map to {args.kpca_out}" if kernel else ""))
    return 0


def _projector(args):
    """Raw points -> embedding, through the model (and kernel map) read once."""
    model = load_model(args.model)
    if args.kpca:
        kmap = load_kpca(args.kpca)
        return lambda X: kpca_embed(kmap, model, X)
    return lambda X: embed(model, X)


def _cmd_transform(args) -> int:
    data = _load(args)
    Z = _projector(args)(data.X)
    header = ",".join(f"z{i}" for i in range(Z.shape[0]))
    np.savetxt(args.out, Z.T, delimiter=",", header=header, comments="")
    print(f"{data.n} embedded points written to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    _at_least(args, integer=True, k=1)   # before any file is read
    train = load_csv(args.train, args.label_column, args.missing_label_token)
    data = _load(args)
    lab = np.flatnonzero(train.labeled_mask)
    if lab.size == 0:
        raise ValueError(f"{args.train}: no labeled examples to classify against")
    project = _projector(args)
    index = KnnIndex(points=project(train.X)[:, lab],
                     labels=train.labels[lab], k=min(args.k, lab.size))
    pred = knn_classify(index, project(data.X))
    lines = [train.label_names[p - 1] for p in np.atleast_1d(pred)]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    if data.labeled_mask.all():
        # each CSV numbers its own labels: compare the names
        acc = float((np.array(lines) == np.array(data.label_names)[data.labels - 1]).mean())
        print(f"accuracy {acc:.6f}", file=sys.stderr)
    return 0


def _cmd_benchmark(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    config = parse_config(args.config, overrides)
    results = run_benchmark(config)
    for res in results:
        for failure in res.failures:
            print(f"ssdr benchmark: {res.name}: {failure}", file=sys.stderr)
        if not res.accuracies:
            print(f"ssdr benchmark: {res.name}: every realization failed", file=sys.stderr)
    report = format_report(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0 if all(res.accuracies for res in results) else 1


def _cmd_toy_gen(args) -> int:
    if args.kind == "balance":
        data = generate_balance()
    else:
        data = generate_multimodal_toy(args.kind, args.n_per_cluster,
                                       args.noise, args.seed)
    save_csv(data, args.out)
    print(f"{data.n} examples written to {args.out}")
    return 0


def _cmd_graph_export(args) -> int:
    # every option is checked before the data is read and the kernel built
    heat = _parse_heat(args.heat, args.heat_k)
    _check_threshold(args.threshold)
    data = _load(args)
    cu = heat_kernel_costs(data.X, heat)
    export_edge_list(cu, args.threshold, args.out)
    print(f"edge list written to {args.out}")
    return 0


def _cmd_good_neighbors(args) -> int:
    kernel = _parse_kernel(args.kernel)   # before the data is read
    data = _load(args)
    mapping = None
    if kernel is not None:
        kmap = kpca_fit(data.X, kernel)
        mapping = lambda X: kpca_transform(kmap, X)
    print(f"{good_neighbors_score(data, mapping):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdr",
        description="semi-supervised spectral dimensionality reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an embedding and save the model")
    _add_data_args(p)
    p.add_argument("--base", default=LearnerSpec.base, choices=BASES)
    p.add_argument("--unlabel", default=LearnerSpec.unlabel, choices=UNLABEL_MODES)
    p.add_argument("--gamma", type=float, default=LearnerSpec.gamma)
    p.add_argument("--alpha", type=int, default=LearnerSpec.alpha)
    p.add_argument("--k", type=int, default=LearnerSpec.k)
    p.add_argument("--dim", type=int, default=LearnerSpec.dim)
    p.add_argument("--weighting", default=LearnerSpec.weighting_mode, choices=WEIGHTING_MODES)
    p.add_argument("--heat", default=HeatKernelSpec.scaling, help="'local' or 'global:SIGMA'")
    p.add_argument("--heat-k", type=int, default=HeatKernelSpec.k)
    p.add_argument("--gamma-prime", type=float, default=LearnerSpec.gamma_prime)
    p.add_argument("--epsilon", type=float, default=LearnerSpec.epsilon)
    p.add_argument("--kernel", default="none",
                   help="none | linear | polyN | gaussian:SIGMA")
    p.add_argument("--kpca-out", default=None, help="kernel-map output path")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transform", help="embed a CSV through a saved model")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--kpca", default=None, help="kernel-map path for kernel models")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("classify", help="k-NN classification in the embedded space")
    _add_data_args(p)
    p.add_argument("--train", required=True, help="CSV with the labeled index points")
    p.add_argument("--model", required=True)
    p.add_argument("--kpca", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None, help="predictions file; default stdout")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("benchmark", help="run a benchmark from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the split seed")
    p.add_argument("--out", default=None, help="TSV report path; default stdout")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("toy-gen", help="write a synthetic dataset as CSV")
    p.add_argument("--kind", required=True, choices=TOY_KINDS + ("balance",))
    p.add_argument("--n-per-cluster", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_toy_gen)

    p = sub.add_parser("graph-export",
                       help="export the heat-kernel neighborhood graph as TSV")
    _add_data_args(p)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--heat", default=HeatKernelSpec.scaling)
    p.add_argument("--heat-k", type=int, default=HeatKernelSpec.k)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph_export)

    p = sub.add_parser("good-neighbors",
                       help="leave-one-out 1-NN label agreement of a dataset")
    _add_data_args(p)
    p.add_argument("--kernel", default="none",
                   help="score in KPCA coordinates of this kernel")
    p.set_defaults(func=_cmd_good_neighbors)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # uniform nonzero-exit diagnostics
        print(f"ssdr {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
