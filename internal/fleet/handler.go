package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// maxFleetBody caps fleet request bodies. Generous: a chunk of trace
// replay specs is the largest legitimate payload.
const maxFleetBody = 8 << 20

// Handler returns the coordinator's HTTP surface, routed with full
// /fleet/v1/... patterns so it mounts directly on a parent mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fleet/v1/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/complete", c.handleComplete)
	mux.HandleFunc("GET /fleet/v1/store/{key}", c.handleStoreGet)
	mux.HandleFunc("PUT /fleet/v1/store/{key}", c.handleStorePut)
	return mux
}

// decodeBody reads a capped JSON body into v, answering 400 itself on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFleetBody))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeFleetJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeFleetJSON(w, c.register(req.Name))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := c.grantLease(r.Context(), req.WorkerID)
	if err != nil {
		// Unknown worker: the coordinator restarted. 410 tells the
		// worker to re-register rather than retry blindly.
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	writeFleetJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !c.heartbeat(req.WorkerID, req.LeaseID) {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.complete(req)
	w.WriteHeader(http.StatusNoContent)
}

// validKey guards the store endpoints: content keys are exactly the
// 64 lowercase hex digits of a SHA-256, never a path. Anything else
// is rejected before it can reach a filesystem-backed store.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

func (c *Coordinator) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "invalid store key", http.StatusBadRequest)
		return
	}
	pt, ok := c.storeGet(key)
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	writeFleetJSON(w, StoreEntry{Key: key, Point: pt})
}

func (c *Coordinator) handleStorePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		http.Error(w, "invalid store key", http.StatusBadRequest)
		return
	}
	var e StoreEntry
	if !decodeBody(w, r, &e) {
		return
	}
	if e.Key != key {
		http.Error(w, "entry key does not match URL key", http.StatusBadRequest)
		return
	}
	c.storePut(key, e.Spec, e.Point)
	w.WriteHeader(http.StatusNoContent)
}
