package chaos

import (
	"chaos/internal/service"
)

// This file is the public surface of the partitioning service
// (cmd/chaosd): a long-lived daemon wrapping the partitioner library
// behind a small wire protocol, with a content-addressed cache of
// finished partitions and retained MULTILEVEL coarsening ladders so
// partitioning cost is amortized across every client — the paper's
// schedule-reuse economy lifted from one program's iterations to a
// fleet of programs. See internal/service and
// docs/ARCHITECTURE.md ("Service layer").

// ServiceServer is the partitioning daemon core: construct with
// NewServiceServer, answer in-process requests with Do, serve wire
// clients with Serve, shut down with Close.
type ServiceServer = service.Server

// ServiceOptions configures a ServiceServer (pool width, admission
// queue depth, cache memory cap). The zero value selects the
// documented defaults.
type ServiceOptions = service.Options

// ServiceClient speaks the chaosd wire protocol over one connection.
type ServiceClient = service.Client

// ServiceRequest is one partitioning request: a LINK-only graph (full
// edge-list upload, or base fingerprint + churn delta) plus a
// PartitionSpec, part count and machine width.
type ServiceRequest = service.Request

// ServiceResponse is the answer: the full part vector with cut,
// timing figures, the graph's fingerprint (usable as a later
// request's Base) and how the request was served.
type ServiceResponse = service.Response

// ServiceFingerprint is the stable content address of a graph.
type ServiceFingerprint = service.Fingerprint

// ServiceEdgeRewire is one churn-delta element: edge Edge's second
// endpoint re-pointed at NewEnd.
type ServiceEdgeRewire = service.EdgeRewire

// ServiceServed reports how a response was produced: cache hit, cold
// compute, warm ladder-reusing repartition, or batched onto an
// identical in-flight request.
type ServiceServed = service.Served

// Served classes of a ServiceResponse.
const (
	ServiceServedHit    = service.ServedHit
	ServiceServedCold   = service.ServedCold
	ServiceServedWarm   = service.ServedWarm
	ServiceServedShared = service.ServedShared
)

// Typed service errors, errors.Is-able on both sides of the wire.
var (
	// ErrServiceOverloaded is the admission-control rejection
	// (retryable: back off and resend).
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrServiceUnknownGraph rejects a delta whose base fingerprint the
	// daemon no longer holds; re-send the graph as a full upload.
	ErrServiceUnknownGraph = service.ErrUnknownGraph
	// ErrServiceBadRequest rejects an invalid request.
	ErrServiceBadRequest = service.ErrBadRequest
)

// NewServiceServer creates a partitioning daemon core.
func NewServiceServer(opt ServiceOptions) *ServiceServer { return service.New(opt) }

// DialService connects a ServiceClient to a chaosd daemon.
func DialService(network, addr string) (*ServiceClient, error) {
	return service.Dial(network, addr)
}
