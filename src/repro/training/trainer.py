"""Training loops for the baseline and MERCURY configurations.

The trainer works for both the CNN classification task (integer labels)
and the transformer translation task (per-position integer targets); the
loss is softmax cross entropy in both cases, so the only difference is
the label shape.

When an engine is attached (``ReuseEngine`` for MERCURY or
``ExactCountingEngine``/``CaptureEngine`` for baselines and analysis),
the trainer calls ``engine.end_iteration(loss)`` after every optimizer
step so the adaptation policies see the loss trajectory exactly as the
paper describes (§III-D).

With a telemetry bus attached (``Trainer(..., bus=...)`` — an
:class:`repro.obs.bus.EventBus`, usually via
:class:`repro.obs.Telemetry`), :meth:`Trainer.fit` emits one
``training.epoch`` event per epoch carrying the loss/accuracy point
and the engine's reuse deltas (vectors, hits, flash clears, signature
length), so training and serving report reuse through one metric
vocabulary (``repro_reuse_*{phase="training"}`` next to
``phase="serving"`` — see :data:`repro.obs.metrics.METRIC_NAMES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.loaders import BatchLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD, Adam
from repro.training.metrics import top1_accuracy


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    optimizer: str = "sgd"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")


@dataclass
class TrainingResult:
    """Loss/accuracy history of one training run.

    ``iteration_losses`` holds the per-step loss trajectory (what the
    adaptation policies observe); ``epoch_losses`` its per-epoch means.
    The record round-trips through plain dicts so sweep rows and golden
    regression files can embed it verbatim.
    """

    epoch_losses: list = field(default_factory=list)
    epoch_train_accuracy: list = field(default_factory=list)
    iteration_losses: list = field(default_factory=list)
    iterations: int = 0
    final_validation_accuracy: float | None = None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    def to_dict(self) -> dict:
        """JSON-safe view of the full history."""
        return {
            "epoch_losses": [float(v) for v in self.epoch_losses],
            "epoch_train_accuracy": [float(v)
                                     for v in self.epoch_train_accuracy],
            "iteration_losses": [float(v) for v in self.iteration_losses],
            "iterations": int(self.iterations),
            "final_validation_accuracy":
                None if self.final_validation_accuracy is None
                else float(self.final_validation_accuracy),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingResult":
        return cls(epoch_losses=list(payload["epoch_losses"]),
                   epoch_train_accuracy=list(payload["epoch_train_accuracy"]),
                   iteration_losses=list(payload.get("iteration_losses", [])),
                   iterations=payload["iterations"],
                   final_validation_accuracy=payload[
                       "final_validation_accuracy"])


class Trainer:
    """Runs epochs of minibatch SGD with an optional compute engine."""

    def __init__(self, model, config: TrainingConfig | None = None,
                 engine=None, bus=None):
        self.model = model
        self.config = config or TrainingConfig()
        self.engine = engine
        # Optional telemetry bus; fit() emits per-epoch reuse events.
        self.bus = bus
        if engine is not None:
            model.set_engine(engine)
        self.loss_fn = CrossEntropyLoss()
        if self.config.optimizer == "adam":
            self.optimizer = Adam(model.parameters(),
                                  lr=self.config.learning_rate,
                                  weight_decay=self.config.weight_decay)
        else:
            self.optimizer = SGD(model.parameters(),
                                 lr=self.config.learning_rate,
                                 momentum=self.config.momentum,
                                 weight_decay=self.config.weight_decay)

    # ------------------------------------------------------------------
    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One forward/backward/update step; returns the batch loss."""
        logits = self.model(inputs)
        loss = self.loss_fn(logits, targets)
        # The grads are views of the optimizer's flat buffer: one fill
        # zeroes them all.
        self.optimizer.zero_grad()
        self.model.backward(self.loss_fn.backward())
        self.optimizer.step()
        if self.engine is not None:
            self.engine.end_iteration(loss)
        return loss

    def fit(self, inputs: np.ndarray, targets: np.ndarray,
            validation: tuple | None = None) -> TrainingResult:
        """Train for the configured number of epochs."""
        self.model.train()
        loader = BatchLoader(inputs, targets, batch_size=self.config.batch_size,
                             shuffle=self.config.shuffle, seed=self.config.seed)
        result = TrainingResult()
        reuse_before = self._reuse_totals()
        for epoch in range(self.config.epochs):
            losses = []
            for batch_inputs, batch_targets in loader:
                losses.append(self.train_step(batch_inputs, batch_targets))
                result.iterations += 1
            result.iteration_losses.extend(float(v) for v in losses)
            result.epoch_losses.append(float(np.mean(losses)))
            result.epoch_train_accuracy.append(
                self.evaluate(inputs, targets))
            reuse_before = self._emit_epoch(epoch, result, reuse_before)
        if validation is not None:
            result.final_validation_accuracy = self.evaluate(*validation)
        return result

    # ------------------------------------------------------------------
    def _reuse_totals(self) -> dict:
        """Lifetime reuse totals of the attached engine (zeros without
        one) — diffed per epoch by :meth:`_emit_epoch`."""
        stats = getattr(self.engine, "stats", None)
        session = getattr(self.engine, "session", None)
        return {
            "vectors": int(stats.total_vectors) if stats is not None else 0,
            "hits": int(stats.total_hits) if stats is not None else 0,
            "flash_clears": int(session.clears)
            if session is not None else 0,
        }

    def _emit_epoch(self, epoch: int, result: TrainingResult,
                    before: dict) -> dict:
        """Emit one ``training.epoch`` event; returns the new totals."""
        if self.bus is None:
            return before
        after = self._reuse_totals()
        vectors = after["vectors"] - before["vectors"]
        hits = after["hits"] - before["hits"]
        self.bus.emit(
            "training.epoch", source="trainer",
            epoch=epoch,
            loss=result.epoch_losses[-1],
            accuracy=result.epoch_train_accuracy[-1],
            vectors=vectors, hits=hits,
            flash_clears=after["flash_clears"] - before["flash_clears"],
            hit_rate=hits / vectors if vectors else 0.0,
            signature_bits=int(getattr(self.engine, "signature_bits", 0)
                               or 0))
        return after

    # ------------------------------------------------------------------
    def evaluate(self, inputs: np.ndarray, targets: np.ndarray,
                 batch_size: int | None = None, *,
                 use_engine: bool = False) -> float:
        """Top-1 accuracy of the current model on a labelled set.

        Evaluation is a measurement, not part of the training workload:
        the trainer-owned engine is detached for its duration (and
        reattached afterwards), so accuracy is computed exactly — the
        paper's Figure 13 methodology — and the engine's reuse
        statistics and §III-D adaptation state see only real training
        batches.  Pass ``use_engine=True`` to measure accuracy as the
        accelerator would deliver it, with reuse approximation on.
        """
        detach = not use_engine and self.engine is not None
        if detach:
            self.model.set_engine(None)
        self.model.eval()
        try:
            batch = batch_size or self.config.batch_size
            correct_weighted = 0.0
            count = 0
            for start in range(0, len(inputs), batch):
                chunk_inputs = inputs[start:start + batch]
                chunk_targets = targets[start:start + batch]
                logits = self.model(chunk_inputs)
                correct_weighted += top1_accuracy(logits, chunk_targets) * len(chunk_inputs)
                count += len(chunk_inputs)
        finally:
            self.model.train()
            if detach:
                self.model.set_engine(self.engine)
        return correct_weighted / max(count, 1)
