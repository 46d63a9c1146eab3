#include "tig/overlay.hpp"

#include "util/assert.hpp"

namespace ocr::tig {

void GridOverlay::rebase(const TrackGrid* base) {
  OCR_ASSERT(base != nullptr, "GridOverlay needs a base grid");
  if (base_ != base || h_slot_.size() != static_cast<std::size_t>(
                                             base->num_h()) ||
      v_slot_.size() != static_cast<std::size_t>(base->num_v())) {
    base_ = base;
    h_slot_.reset(static_cast<std::size_t>(base->num_h()));
    v_slot_.reset(static_cast<std::size_t>(base->num_v()));
  } else {
    // Same grid shape: clear only the touched slots (their chunks are
    // present by construction), keeping the directory chunks warm.
    for (const std::int32_t i : touched_h_) {
      *h_slot_.find(static_cast<std::size_t>(i)) = -1;
    }
    for (const std::int32_t j : touched_v_) {
      *v_slot_.find(static_cast<std::size_t>(j)) = -1;
    }
  }
  // Retire the pool instead of destroying it: the sets keep their run
  // capacity for the materializations after this rebase.
  entries_used_ = 0;
  touched_h_.clear();
  touched_v_.clear();
}

std::int32_t GridOverlay::acquire_entry(const geom::IntervalSet& src) {
  const std::size_t idx = entries_used_++;
  if (idx == entries_.size()) {
    entries_.push_back(src);
  } else {
    entries_[idx] = src;
  }
  return static_cast<std::int32_t>(idx);
}

geom::IntervalSet& GridOverlay::materialize_h(int i) {
  std::int32_t& slot = h_slot_.touch(static_cast<std::size_t>(i));
  if (slot < 0) {
    slot = acquire_entry(base_->h_blocked(i));
    touched_h_.push_back(static_cast<std::int32_t>(i));
  }
  return entries_[static_cast<std::size_t>(slot)];
}

geom::IntervalSet& GridOverlay::materialize_v(int j) {
  std::int32_t& slot = v_slot_.touch(static_cast<std::size_t>(j));
  if (slot < 0) {
    slot = acquire_entry(base_->v_blocked(j));
    touched_v_.push_back(static_cast<std::int32_t>(j));
  }
  return entries_[static_cast<std::size_t>(slot)];
}

void GridOverlay::block_h(int i, const geom::Interval& span) {
  materialize_h(i).add(span);
}

void GridOverlay::block_v(int j, const geom::Interval& span) {
  materialize_v(j).add(span);
}

void GridOverlay::unblock_h(int i, const geom::Interval& span) {
  materialize_h(i).remove(span);
}

void GridOverlay::unblock_v(int j, const geom::Interval& span) {
  materialize_v(j).remove(span);
}

}  // namespace ocr::tig
