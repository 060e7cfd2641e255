package server

import (
	"treesim/internal/obs"
	"treesim/internal/search"
)

// Wire types of the HTTP/JSON API. Trees travel in the canonical text
// encoding of package tree (the same format datasets use on disk), e.g.
// "a(b(c,d),e)".

// KNNRequest asks for the K nearest neighbors of Tree.
type KNNRequest struct {
	Tree string `json:"tree"`
	K    int    `json:"k"`
}

// RangeRequest asks for every indexed tree within edit distance Tau of
// Tree (inclusive).
type RangeRequest struct {
	Tree string `json:"tree"`
	Tau  int    `json:"tau"`
}

// DistRequest asks for the exact edit distance between two ad-hoc trees
// (neither needs to be indexed).
type DistRequest struct {
	T1 string `json:"t1"`
	T2 string `json:"t2"`
}

// DistResponse reports the exact distance and the binary branch lower
// bound that a filter would have used — handy for eyeballing filter
// tightness.
type DistResponse struct {
	EditDistance int `json:"edit_distance"`
	LowerBound   int `json:"lower_bound"`
}

// BatchRequest runs one query per tree, all with the same parameters.
// Op is "knn" or "range".
type BatchRequest struct {
	Op    string   `json:"op"`
	Trees []string `json:"trees"`
	K     int      `json:"k,omitempty"`
	Tau   int      `json:"tau,omitempty"`
}

// InsertRequest adds one tree to the live index.
type InsertRequest struct {
	Tree string `json:"tree"`
}

// InsertResponse reports the dataset position assigned to the inserted
// tree and the index size after the insert.
type InsertResponse struct {
	ID   int `json:"id"`
	Size int `json:"size"`
}

// DeleteResponse reports the id a DELETE /v1/trees/{id} tombstoned and
// the number of visible trees after the delete.
type DeleteResponse struct {
	ID   int `json:"id"`
	Live int `json:"live"`
}

// TreeResponse is one indexed tree.
type TreeResponse struct {
	ID   int    `json:"id"`
	Tree string `json:"tree"`
	Size int    `json:"size"`
}

// ResultJSON is one query answer.
type ResultJSON struct {
	ID   int    `json:"id"`
	Dist int    `json:"dist"`
	Tree string `json:"tree,omitempty"`
}

// StatsJSON mirrors search.Stats; AccessedFraction is the paper's quality
// measure (share of the dataset that paid an exact distance computation),
// Candidates the filter's survivor count, FalsePositives the verified
// candidates whose exact distance then failed the predicate.
type StatsJSON struct {
	Dataset          int     `json:"dataset"`
	Candidates       int     `json:"candidates"`
	Verified         int     `json:"verified"`
	Results          int     `json:"results"`
	FalsePositives   int     `json:"false_positives"`
	AccessedFraction float64 `json:"accessed_fraction"`
	FilterMicros     int64   `json:"filter_us"`
	RefineMicros     int64   `json:"refine_us"`
}

// QueryResponse answers /v1/knn and /v1/range. Trace is present only when
// the request asked for it (?trace=1): the request's span tree, stage
// durations and counters included. Explain is present only with
// ?explain=1: the query's filter-quality analysis (bound distribution,
// false positives, tightness samples — see search.Explain).
type QueryResponse struct {
	Results []ResultJSON      `json:"results"`
	Stats   StatsJSON         `json:"stats"`
	Trace   *obs.SpanSnapshot `json:"trace,omitempty"`
	Explain *search.Explain   `json:"explain,omitempty"`
}

// BatchResponse answers /v1/batch, one entry per input tree in order.
// With ?trace=1, Trace carries the whole batch's span tree (one query[i]
// child per input tree).
type BatchResponse struct {
	Queries []QueryResponse   `json:"queries"`
	Trace   *obs.SpanSnapshot `json:"trace,omitempty"`
}

// ReadyResponse answers /readyz. Status is "ready", "recovering" (WAL
// replay in progress; ReplayedRecords counts records applied so far),
// "degraded" (durable writes failing: queries still serve — the response
// stays 200 — but inserts and deletes get 503 not_durable until the disk
// heals; DegradedReason names what failed) or "draining". When ready,
// ReplayedRecords is the startup recovery total and WALRecords counts
// writes logged since.
type ReadyResponse struct {
	Status          string `json:"status"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	ReplayedRecords uint64 `json:"replayed_records,omitempty"`
	WALRecords      uint64 `json:"wal_records,omitempty"`
}

// Stable machine-readable error codes carried by ErrorDetail.Code. Clients
// should branch on these, not on message text or HTTP status alone: the
// code distinguishes causes that share a status (e.g. a malformed JSON
// body and a malformed tree are both 400).
const (
	ErrCodeInvalidRequest   = "invalid_request"   // body is not valid JSON for the endpoint
	ErrCodeInvalidTree      = "invalid_tree"      // a tree field failed to parse or was empty
	ErrCodeInvalidArgument  = "invalid_argument"  // a scalar parameter is out of range (k, tau, op, id, batch size)
	ErrCodeNotFound         = "not_found"         // the referenced resource does not exist
	ErrCodeDeadlineExceeded = "deadline_exceeded" // the request deadline expired mid-query (504) or before the body arrived (408)
	ErrCodeCanceled         = "canceled"          // the client went away mid-query
	ErrCodeOverloaded       = "overloaded"        // admission control refused the request; retry later
	ErrCodeNotDurable       = "not_durable"       // the durable write path is failing (WAL append or degraded mode); retry
	ErrCodeForbidden        = "forbidden"         // the endpoint is restricted (debug endpoints are loopback-only)
	ErrCodeInternal         = "internal"          // handler panic or other server-side fault
)

// ErrorDetail is the payload of every non-2xx JSON answer: a stable code
// for programs, a human-readable message, and the request id for log
// correlation.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON answer, the uniform
// envelope {"error": {"code": ..., "message": ..., "request_id": ...}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

func statsJSON(s search.Stats) StatsJSON {
	return StatsJSON{
		Dataset:          s.Dataset,
		Candidates:       s.Candidates,
		Verified:         s.Verified,
		Results:          s.Results,
		FalsePositives:   s.FalsePositives,
		AccessedFraction: s.AccessedFraction(),
		FilterMicros:     s.FilterTime.Microseconds(),
		RefineMicros:     s.RefineTime.Microseconds(),
	}
}
