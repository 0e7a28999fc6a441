package testbed

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler exposes the testbed's building blocks over REST: POST
// /api/bb/<block>[/<nftype>] with a JSON object of string arguments
// returns a JSON object of string outputs. This is the "REST API" face of
// every building block in the catalog (Section 3.1); cmd/cornetd serves it.
func (tb *Testbed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/bb/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		args := map[string]string{}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &args); err != nil {
				http.Error(w, "decode args: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		out, err := tb.Invoke(r.Context(), r.URL.Path, args)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/api/testbed/faults", tb.handleFaults)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "ok",
			"nfs":    fmt.Sprint(tb.Len()),
		})
	})
	return mux
}

// handleFaults is the fault-injection control endpoint:
//
//	GET    /api/testbed/faults            list installed specs by target
//	POST   /api/testbed/faults            {"target": "vce-000", ...FaultSpec}
//	DELETE /api/testbed/faults?target=id  clear one target ("" clears all)
//
// POSTing a zero spec for a target also clears it. Operators use this to
// rehearse failure handling against a live cornetd without restarting it.
func (tb *Testbed) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, tb.Faults())
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Target string `json:"target"`
			FaultSpec
		}
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "decode fault spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Target != FaultTargetAll && req.Target != "" {
			if _, ok := tb.Get(req.Target); !ok {
				http.Error(w, fmt.Sprintf("unknown instance %q", req.Target), http.StatusNotFound)
				return
			}
		}
		if err := tb.SetFault(req.Target, req.FaultSpec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, tb.Faults())
	case http.MethodDelete:
		if target := r.URL.Query().Get("target"); target != "" {
			tb.ClearFault(target)
		} else {
			tb.ClearFaults()
		}
		writeJSON(w, http.StatusOK, tb.Faults())
	default:
		http.Error(w, "GET, POST, or DELETE required", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
