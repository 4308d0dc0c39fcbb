"""Regenerate the bundled benchmark files from the raw sources in data/raw.

Each dataset is converted to the package's .dt container: categorical
attributes are mapped to their customary integer codes, missing entries are
filled with the column mode, every feature column is min-max scaled to
[0, 1] over the whole file, and the rows are shuffled once with a fixed
seed before the positional train/validation/test split.

Sources (all fetched from their public distributions):
  biopsy.csv        Wisconsin breast cancer data, 699 biopsies, 9 cytology
                    scores in 1..10, 16 missing entries in the bare-nuclei
                    column; class benign/malignant.
  heart_disease.tab Cleveland heart disease data, 303 patients, 13
                    attributes, 6 missing entries; class is presence of
                    >50% vessel diameter narrowing.
  pima.dat          Pima diabetes data, 768 patients, 8 attributes;
                    class positive/negative for diabetes.

Run from the repository root:  python3 scripts/make_benchmarks.py
"""

import csv
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
RAW = ROOT / "data" / "raw"
OUT = ROOT / "src" / "growbp" / "data"

sys.path.insert(0, str(ROOT / "src"))

from growbp.dataset import (  # noqa: E402
    DatasetHeader,
    _split,
    normalize_raw,
    save_dataset,
)
from growbp.kernel import Generator, matrix, view  # noqa: E402

# One fixed shuffle per dataset so the emitted files are reproducible.
SHUFFLE_SEEDS = {"cancer1": 1, "heart1": 1, "diabetes1": 1}

HEART_CODES = {
    "gender": {"female": 0, "male": 1},
    "chest pain": {
        "typical ang": 1,
        "atypical ang": 2,
        "non-anginal": 3,
        "asymptomatic": 4,
    },
    "rest ECG": {"normal": 0, "ST-T abnormal": 1, "left vent hypertrophy": 2},
    "slope peak exc ST": {"upsloping": 1, "flat": 2, "downsloping": 3},
    "thal": {"normal": 3, "fixed defect": 6, "reversable defect": 7},
}


def impute_mode(column, missing="?"):
    """Replace missing markers with the most common observed value."""
    observed = [v for v in column if v != missing]
    mode = Counter(observed).most_common(1)[0][0]
    return [mode if v == missing else v for v in column]


def one_hot(index):
    row = [0.0, 0.0]
    row[index] = 1.0
    return row


def read_cancer():
    with open(RAW / "biopsy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    assert len(body) == 699
    columns = list(zip(*body))
    features = []
    for col in columns[2:11]:
        features.append([float(v) for v in impute_mode(col, missing="NA")])
    X = [list(row) for row in zip(*features)]
    T = [one_hot(0 if r[11] == "benign" else 1) for r in body]
    return X, T, (350, 175, 174)


def read_heart():
    with open(RAW / "heart_disease.tab", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    names = rows[0]
    body = rows[3:]
    assert len(body) == 303
    features = []
    for i, name in enumerate(names[:13]):
        col = impute_mode([r[i] for r in body])
        codes = HEART_CODES.get(name)
        if codes:
            features.append([float(codes[v]) for v in col])
        else:
            features.append([float(v) for v in col])
    X = [list(row) for row in zip(*features)]
    T = [[float(r[13])] for r in body]
    return X, T, (152, 76, 75)


def read_diabetes():
    lines = (RAW / "pima.dat").read_text().splitlines()
    body = lines[lines.index("@data") + 1:]
    body = [ln for ln in body if ln.strip()]
    assert len(body) == 768
    X = []
    T = []
    for ln in body:
        parts = ln.split(",")
        X.append([float(v) for v in parts[:8]])
        T.append(one_hot(0 if parts[8].strip() == "negative" else 1))
    return X, T, (384, 192, 192)


def emit(name, X, T, split):
    n_train, n_valid, n_test = split
    assert len(X) == sum(split)
    width, flat = len(X[0]), matrix(X)[0]
    normalize_raw(flat, width, len(X))  # statistics over the whole file
    X = view(flat, (len(X), width)).tolist()
    # growbp's Generator draws numpy's default_rng permutation bit for bit.
    order = Generator(SHUFFLE_SEEDS[name]).permutation(len(X))
    X, T = [X[i] for i in order], [T[i] for i in order]
    n_outputs = len(T[0])
    header = DatasetHeader(
        n_inputs=len(X[0]),
        n_outputs=n_outputs,
        n_train=n_train,
        n_valid=n_valid,
        n_test=n_test,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    save_dataset(_split(header, matrix(X)[0], matrix(T)[0]),
                 OUT / f"{name}.dt")
    print(f"{name}.dt: {header.n_inputs} inputs, {n_outputs} outputs, "
          f"{n_train}/{n_valid}/{n_test}")


def main():
    emit("cancer1", *read_cancer())
    emit("heart1", *read_heart())
    emit("diabetes1", *read_diabetes())


if __name__ == "__main__":
    main()
