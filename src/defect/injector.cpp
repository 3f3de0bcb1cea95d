#include "defect/injector.hpp"

#include "defect/overlay.hpp"

namespace caml {

Cell inject_defect(const Cell& cell, const Defect& defect, const InjectionConfig& config) {
  DefectOverlay overlay(cell, config);
  overlay.apply(defect);
  return std::move(overlay).release();
}

}  // namespace caml
