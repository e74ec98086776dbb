package server

import (
	"net/http"
	"sync"

	"graphmat/algorithms"
)

// GET /v1/openapi.json serves a machine-readable description of the v1 API.
// The document is assembled once (the algorithm list is fixed at init time)
// and enumerates the registry dynamically, so a newly registered semiring
// algorithm appears in the run schema without touching this file.

var openAPIOnce = sync.OnceValue(buildOpenAPI)

func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, openAPIOnce())
}

func buildOpenAPI() map[string]any {
	algoNames := make([]any, 0)
	algoDescs := map[string]any{}
	for _, spec := range algorithms.Specs() {
		algoNames = append(algoNames, spec.Name)
		algoDescs[spec.Name] = map[string]any{
			"description": spec.Description,
			"batchable":   spec.Batchable,
		}
	}
	jsonBody := func(schema any) map[string]any {
		return map[string]any{
			"content": map[string]any{"application/json": map[string]any{"schema": schema}},
		}
	}
	ref := func(name string) map[string]any {
		return map[string]any{"$ref": "#/components/schemas/" + name}
	}
	okJSON := func(desc string, schema any) map[string]any {
		resp := map[string]any{"description": desc}
		if schema != nil {
			resp["content"] = map[string]any{"application/json": map[string]any{"schema": schema}}
		}
		return map[string]any{"200": resp}
	}
	nameParam := map[string]any{
		"name": "name", "in": "path", "required": true,
		"schema": map[string]any{"type": "string"}, "description": "registered graph name",
	}

	return map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "graphmatd",
			"version":     "v1",
			"description": "Resident graph analytics service: registered graphs, live edge updates, and semiring algorithm runs (single- and multi-source).",
		},
		"paths": map[string]any{
			"/v1/healthz": map[string]any{"get": map[string]any{
				"summary":   "liveness probe",
				"responses": okJSON("service is up", nil),
			}},
			"/v1/stats": map[string]any{"get": map[string]any{
				"summary":   "service statistics (requests, cache, admission batcher, per-graph engine tallies)",
				"responses": okJSON("statistics snapshot", nil),
			}},
			"/v1/algorithms": map[string]any{"get": map[string]any{
				"summary":   "list registered algorithms and their parameter schemas",
				"responses": okJSON("algorithm listing", nil),
			}},
			"/v1/openapi.json": map[string]any{"get": map[string]any{
				"summary":   "this document",
				"responses": okJSON("OpenAPI description", nil),
			}},
			"/v1/graphs": map[string]any{
				"get": map[string]any{
					"summary":   "list registered graphs",
					"responses": okJSON("graph listing", nil),
				},
				"post": map[string]any{
					"summary":     "register a graph from a source description (JSON body) or an upload (?format=mtx|edgelist|bin with ?name=)",
					"requestBody": jsonBody(map[string]any{"type": "object"}),
					"responses":   map[string]any{"201": map[string]any{"description": "graph registered"}},
				},
			},
			"/v1/graphs/{name}": map[string]any{
				"get": map[string]any{
					"summary":    "describe one graph",
					"parameters": []any{nameParam},
					"responses":  okJSON("graph info", nil),
				},
				"delete": map[string]any{
					"summary":    "unregister a graph",
					"parameters": []any{nameParam},
					"responses":  okJSON("graph removed", nil),
				},
			},
			"/v1/graphs/{name}/edges": map[string]any{"post": map[string]any{
				"summary":    "apply a live edge-update batch (NDJSON or edgelist body); advances the graph one epoch",
				"parameters": []any{nameParam},
				"responses":  okJSON("batch applied", nil),
			}},
			"/v1/graphs/{name}/run": map[string]any{"post": map[string]any{
				"summary":     "run an algorithm: scalar, or one independent run per source as a multi-source block batch",
				"description": "Single-source requests (sources with one element) keep the scalar response shape and may be coalesced with concurrent compatible requests into one shared block run; per-source values are bit-identical to solo runs either way. Algorithms without a source parameter must omit sources.",
				"parameters":  []any{nameParam},
				"requestBody": jsonBody(ref("RunRequest")),
				"responses":   okJSON("run result (scalar or batch shape; NDJSON stream when stream=true)", nil),
			}},
			"/v1/graphs/{name}/run/{algo}": map[string]any{"post": map[string]any{
				"summary": "run an algorithm, parameters in the body (query knobs: mode, timeout_ms, stream)",
				"parameters": []any{nameParam, map[string]any{
					"name": "algo", "in": "path", "required": true,
					"schema": map[string]any{"type": "string", "enum": algoNames},
				}},
				"requestBody": jsonBody(map[string]any{"type": "object"}),
				"responses":   okJSON("run result", nil),
			}},
		},
		"components": map[string]any{"schemas": map[string]any{
			"RunRequest": map[string]any{
				"type":     "object",
				"required": []any{"algo"},
				"properties": map[string]any{
					"algo": map[string]any{
						"type": "string", "enum": algoNames,
						"description": "registry algorithm name",
					},
					"sources": map[string]any{
						"type":        "array",
						"items":       map[string]any{"type": "integer", "minimum": 0},
						"description": "one independent run per vertex, advanced as a multi-source block batch (batchable algorithms only)",
					},
					"mode": map[string]any{
						"type": "string", "enum": []any{"auto", "pull", "push"},
						"description": "SpMV kernel; a performance knob, results are bit-identical across modes",
					},
					"params": map[string]any{
						"type":        "object",
						"description": "algorithm parameters per GET /v1/algorithms (source, iters, tolerance, restart, ...)",
					},
					"timeout_ms": map[string]any{
						"type": "integer", "minimum": 1,
						"description": "wall-time bound; expiry returns 504",
					},
					"stream": map[string]any{
						"type":        "boolean",
						"description": "NDJSON progress stream instead of a blocking response",
					},
				},
			},
			"Algorithms": map[string]any{
				"type":        "object",
				"description": "registered algorithms",
				"properties":  algoDescs,
			},
		}},
	}
}
