#pragma once
/// \file bench_rows.hpp
/// \brief Append-only writes of the committed bench trajectories
/// (BENCH_*.json at the repository root).
///
/// A trajectory file is a JSON array of flat row objects, one per
/// measurement. Each capture adds its rows under a label and leaves every
/// earlier row as it was, so the history of a figure survives later runs.

#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/trace.hpp"

namespace ocr::io {

/// Merges \p rows into the trajectory file at \p path, creating it when
/// missing. Rows are keyed by (label, kind, instance, mode, threads); an
/// absent field counts as empty. A new row replaces the existing row with
/// its key, in place; rows with other keys are kept byte for byte, and new
/// keys go at the end. A file that does not parse as an array of flat
/// objects is left untouched and reported. The write goes through a
/// temporary file and a rename.
util::Status merge_bench_rows(const std::string& path,
                              const std::vector<util::TraceEvent>& rows);

}  // namespace ocr::io
