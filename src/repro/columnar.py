"""pandas <-> Arrow conversions shared by the column-wise tagging
(:mod:`repro.parsing.distributed`) and scoring (:mod:`repro.detect.scoring`)
of a partition batch."""
from __future__ import annotations

import pandas as pd
import pyarrow as pa


def arrow_column(col: pd.Series) -> pa.Array:
    """``col`` as one Arrow array, without a copy if it is one Arrow chunk."""
    if isinstance(col.dtype, pd.ArrowDtype):
        return col.array.__arrow_array__().combine_chunks()
    return pa.array(col.to_numpy(dtype=object) if col.dtype == object else col,
                    from_pandas=True)


def arrow_frame(batches: list[pa.RecordBatch]) -> pd.DataFrame:
    """Arrow batches as one pandas frame of Arrow-backed columns: strings
    stay Arrow buffers instead of becoming Python objects."""
    return pa.Table.from_batches(batches).to_pandas(types_mapper=pd.ArrowDtype)
