#include "cluster/shard.hpp"

#include <mutex>
#include <utility>

namespace fbc::cluster {

RemoteShard::ClientPtr RemoteShard::checkout() const {
  {
    std::lock_guard<OrderedMutex> lock(remote_mu_);
    if (closed_) throw service::NetError("remote shard is closed");
    if (!idle_.empty()) {
      ClientPtr client = std::move(idle_.back());
      idle_.pop_back();
      return client;
    }
  }
  return std::make_unique<service::BundleClient>(port_);
}

void RemoteShard::checkin(ClientPtr client) const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  if (closed_) return;  // drop: close() already tore the pool down
  if (idle_.size() >= pool_cap_) return;  // drop-on-full: bounded pool
  idle_.push_back(std::move(client));
}

service::AcquireResult RemoteShard::acquire(const Request& request) {
  ClientPtr client = checkout();
  // On a wire error the connection is poisoned: let `client` die with the
  // exception instead of returning it to the pool.
  service::AcquireResult result = client->acquire(request.files);
  checkin(std::move(client));
  return result;
}

bool RemoteShard::release(LeaseId lease) {
  ClientPtr client = checkout();
  const bool ok = client->release(lease);
  checkin(std::move(client));
  return ok;
}

service::MetricsSnapshot RemoteShard::metrics() const {
  ClientPtr client = checkout();
  service::MetricsSnapshot snapshot = client->metrics();
  checkin(std::move(client));
  return snapshot;
}

void RemoteShard::close() {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  closed_ = true;
  idle_.clear();  // disconnects; the daemon reclaims any leaked leases
}

void RemoteShard::invalidate_pool() {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  idle_.clear();  // poisoned sockets; the next call dials fresh
}

std::size_t RemoteShard::idle_connections() const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  return idle_.size();
}

}  // namespace fbc::cluster
