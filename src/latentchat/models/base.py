"""Shared model scaffolding: the parameter registry and the time-major
target layout."""


class BaseModel:
    kind = "base"

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = {}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def flat_targets(batch):
    """Targets/mask/labels flattened time-major to align with stacked
    decoder states (step 0 rows first)."""
    tgt = batch.response.T.reshape(-1)
    mask = batch.mask.T.reshape(-1)
    gate = batch.gate_labels.T.reshape(-1)
    return tgt, mask, gate


def per_sequence(flat_data, batch):
    """Fold a flat time-major [T*B] array back to per-sequence sums [B]."""
    t = batch.response.shape[1]
    return flat_data.reshape(t, batch.size).sum(axis=0)
