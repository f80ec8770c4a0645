#include "version/snapshot.h"

namespace seed::version {

SnapshotPtr Snapshot::Capture(const core::Database& source,
                              std::uint64_t epoch) {
  return SnapshotPtr(new Snapshot(source.Clone(), epoch));
}

}  // namespace seed::version
